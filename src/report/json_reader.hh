/**
 * @file
 * Minimal recursive-descent JSON parser.
 *
 * Exists so the repo can *consume* its own artifacts — `espsim
 * diff`, the artifact checker (check/artifact_check), the fuzz
 * oracles and the round-trip tests — without growing a third-party
 * dependency. It parses strict RFC 8259 JSON into a small value tree;
 * it is not optimised for huge documents (an artifact is a few MB at
 * most, a per-event timeline the largest).
 */

#ifndef ESPSIM_REPORT_JSON_READER_HH
#define ESPSIM_REPORT_JSON_READER_HH

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace espsim
{

/** One parsed JSON value; a tagged tree node. */
class JsonValue
{
  public:
    enum class Kind : unsigned char
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member access; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &name) const;

    /** Member that must exist (panics otherwise; for tests/tools). */
    const JsonValue &at(const std::string &name) const;
};

/**
 * Parse @p text as one JSON document. Returns nullptr (and fills
 * @p error when given) on malformed input or trailing garbage.
 */
std::unique_ptr<JsonValue> parseJson(std::string_view text,
                                     std::string *error = nullptr);

} // namespace espsim

#endif // ESPSIM_REPORT_JSON_READER_HH
