#pragma once
// The JSON module lives in src/json; perfbench still names these three
// through namespace serve.
#include "json/json.hpp"

namespace syndcim::serve {
using json::JsonValue;
using json::json_escape;
using json::json_parse;
}  // namespace syndcim::serve
