// Minimal JSON support: a streaming writer used to export experiment
// results, a small recursive-descent parser producing a JsonValue DOM, and
// the field tables through which core/config_io and scenario/scenario_io
// both load and save their documents. The writer handles
// string escaping, comma placement, and non-finite numbers (emitted as
// null per RFC 8259); doubles are printed in shortest-round-trip form, so
// write -> parse reproduces bit-identical values.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace fedco::util {

/// Appends `number` to `out` in the shortest form that parses back to
/// exactly `number` (std::to_chars round-trip); non-finite values become
/// `null`. Shared by JsonWriter and the obs JSONL emitter so every double
/// the repo writes survives a write -> parse cycle bit-identically.
void append_shortest_double(std::string& out, double number);

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object member key; must be followed by a value or container begin.
  JsonWriter& key(const std::string& name);

  JsonWriter& value(double number);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(bool boolean);
  JsonWriter& value(const std::string& text);
  JsonWriter& value(const char* text) { return value(std::string{text}); }
  JsonWriter& null();

  /// Convenience: key + value.
  template <typename T>
  JsonWriter& member(const std::string& name, const T& v) {
    key(name);
    return value(v);
  }

  /// Finished document; throws std::logic_error if containers are still
  /// open.
  [[nodiscard]] std::string str() const;

  [[nodiscard]] static std::string escape(const std::string& text);

 private:
  void before_value();

  std::string out_;
  /// Stack of (is_object, has_elements) container states.
  struct Scope {
    bool is_object = false;
    bool has_elements = false;
    bool expecting_value = false;  // object: key was just written
  };
  std::vector<Scope> stack_;
  bool root_written_ = false;
};

/// One parsed JSON value. Numbers are stored as double (adequate for every
/// fedco config field; 64-bit integers round-trip exactly up to 2^53).
/// Object member order is preserved.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;
  explicit JsonValue(std::nullptr_t) {}
  explicit JsonValue(bool v) : kind_(Kind::kBool), bool_(v) {}
  explicit JsonValue(double v) : kind_(Kind::kNumber), number_(v) {}
  explicit JsonValue(std::string v)
      : kind_(Kind::kString), string_(std::move(v)) {}
  explicit JsonValue(Array v) : kind_(Kind::kArray), array_(std::move(v)) {}
  explicit JsonValue(Object v) : kind_(Kind::kObject), object_(std::move(v)) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::kObject;
  }

  /// Checked accessors; throw std::invalid_argument on a kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& name) const noexcept;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parse one JSON document (trailing whitespace allowed, nothing else).
/// Throws std::invalid_argument with an offset-annotated message on
/// malformed input.
[[nodiscard]] JsonValue parse_json(const std::string& text);

// ------------------------------------------------------------- loaders
//
// Shared helpers for the strict document loaders (core/config_io,
// scenario/scenario_io): typed member readers with field-qualified error
// messages, an unknown-key-rejecting member dispatcher, and the field
// tables below built on both, so every loader shares one strictness
// discipline. `prefix` names the loader in errors (e.g. "config_io: 'seed'
// must be a number").

/// ASCII-lowercase a token (the loaders' case-insensitive enum
/// vocabularies: scheduler/device/model/distribution names; the arrival
/// trace CSV's "slot" header).
[[nodiscard]] std::string ascii_lowered(std::string text);

[[nodiscard]] double json_read_double(const JsonValue& value,
                                      const std::string& key,
                                      const char* prefix);
[[nodiscard]] bool json_read_bool(const JsonValue& value,
                                  const std::string& key, const char* prefix);
[[nodiscard]] const std::string& json_read_string(const JsonValue& value,
                                                  const std::string& key,
                                                  const char* prefix);
/// Integers travel as JSON numbers (doubles); beyond 2^53 they are no
/// longer exactly representable, so a value past that silently changes on
/// the way through — these reject it rather than corrupt the document
/// (the narrowing casts would also be UB for out-of-range doubles).
[[nodiscard]] std::uint64_t json_read_uint(const JsonValue& value,
                                           const std::string& key,
                                           const char* prefix);
[[nodiscard]] std::int64_t json_read_int(const JsonValue& value,
                                         const std::string& key,
                                         const char* prefix);

/// Iterate an object's members, dispatching each through `apply(key,
/// value)`; apply returns false for keys it does not know, which is fatal
/// (an unknown key is almost always a typo).
template <typename Apply>
void json_for_each_member(const JsonValue& object, const std::string& where,
                          const char* prefix, Apply&& apply) {
  if (!object.is_object()) {
    throw std::invalid_argument{std::string{prefix} + ": '" + where +
                                "' must be an object"};
  }
  for (const auto& [key, value] : object.as_object()) {
    if (!apply(key, value)) {
      throw std::invalid_argument{std::string{prefix} + ": unknown key '" +
                                  where + "." + key + "'"};
    }
  }
}

// ------------------------------------------------------------- vocabularies
//
// An enum's token vocabulary is one {value, token} array read both ways:
// the first row of a value is the token written for it, and any later row
// of the same value is an alias that only parses. Parsing ignores ASCII
// case.

template <typename E>
struct JsonToken {
  E value;
  const char* token;
};

template <typename E, std::size_t N>
[[nodiscard]] const char* json_token(const JsonToken<E> (&vocabulary)[N],
                                     E value) noexcept {
  for (const JsonToken<E>& row : vocabulary) {
    if (row.value == value) return row.token;
  }
  return "?";
}

/// Throws std::invalid_argument "unknown <noun> '<name>'".
template <typename E, std::size_t N>
[[nodiscard]] E json_parse_token(const JsonToken<E> (&vocabulary)[N],
                                 const std::string& name, const char* noun) {
  const std::string lowered = ascii_lowered(name);
  for (const JsonToken<E>& row : vocabulary) {
    if (lowered == row.token) return row.value;
  }
  throw std::invalid_argument{"unknown " + std::string{noun} + " '" + name +
                              "'"};
}

// ------------------------------------------------------------- field tables
//
// A loader and its writer walk one table per JSON object. Each row holds a
// key, how to read the member and how to write it, and when to leave it
// out of a written document. The writer emits the rows in table order. A
// row without a writer is load-only (an alias or a retired key). Lookup
// is linear in the rows, which suits documents of a few dozen keys.

/// The object a loader is reading: the loader's error prefix and the
/// object's path as errors name it ("faults.commute", "per_user[3]"). The
/// root's path names the document ("config"), but its members' paths
/// leave it out ("aggregation", not "config.aggregation").
struct JsonScope {
  const char* prefix;
  std::string path;
  bool root = false;

  [[nodiscard]] JsonScope child(const std::string& key) const {
    return JsonScope{prefix, root ? key : path + "." + key, false};
  }
};

/// True when a member is left out of a written document.
template <typename T>
using JsonOmitRule = bool (*)(const T& in);

template <typename T>
struct JsonField {
  const char* key;
  /// Reads member `key` of the object `scope` into `out`.
  void (*read)(const JsonValue& value, const JsonScope& scope,
               const std::string& key, T& out) = nullptr;
  /// Writes the member's value; nullptr makes the row load-only.
  void (*write)(JsonWriter& json, const T& in) = nullptr;
  /// nullptr: always written.
  JsonOmitRule<T> omit = nullptr;
};

template <typename T>
void json_read_fields(const JsonValue& object, const JsonScope& scope,
                      std::span<const JsonField<std::type_identity_t<T>>> rows,
                      T& out) {
  json_for_each_member(
      object, scope.path, scope.prefix,
      [&](const std::string& key, const JsonValue& value) {
        for (const JsonField<T>& row : rows) {
          if (key == row.key) {
            row.read(value, scope, key, out);
            return true;
          }
        }
        return false;
      });
}

template <typename T>
void json_write_fields(JsonWriter& json,
                       std::span<const JsonField<std::type_identity_t<T>>> rows,
                       const T& in) {
  for (const JsonField<T>& row : rows) {
    if (row.write == nullptr || (row.omit != nullptr && row.omit(in))) {
      continue;
    }
    json.key(row.key);
    row.write(json, in);
  }
}

template <typename T>
void json_write_object(JsonWriter& json,
                       std::span<const JsonField<std::type_identity_t<T>>> rows,
                       const T& in) {
  json.begin_object();
  json_write_fields(json, rows, in);
  json.end_object();
}

// Scalar members by type: bool, double, std::string, any integer (unsigned
// ones read as non-negative), and std::optional of these.

template <typename F>
inline constexpr bool kJsonOptional = false;
template <typename F>
inline constexpr bool kJsonOptional<std::optional<F>> = true;

template <typename F>
void json_read_value(const JsonValue& value, const JsonScope& scope,
                     const std::string& key, F& out) {
  if constexpr (kJsonOptional<F>) {
    typename F::value_type inner{};
    json_read_value(value, scope, key, inner);
    out = inner;
  } else if constexpr (std::is_same_v<F, bool>) {
    out = json_read_bool(value, key, scope.prefix);
  } else if constexpr (std::is_floating_point_v<F>) {
    out = json_read_double(value, key, scope.prefix);
  } else if constexpr (std::is_same_v<F, std::string>) {
    out = json_read_string(value, key, scope.prefix);
  } else if constexpr (std::is_unsigned_v<F>) {
    out = static_cast<F>(json_read_uint(value, key, scope.prefix));
  } else {
    static_assert(std::is_integral_v<F>, "no JSON reading for this type");
    out = static_cast<F>(json_read_int(value, key, scope.prefix));
  }
}

template <typename F>
void json_write_value(JsonWriter& json, const F& value) {
  if constexpr (kJsonOptional<F>) {
    if (value) {
      json_write_value(json, *value);
    } else {
      json.null();
    }
  } else if constexpr (std::is_same_v<F, bool> ||
                       std::is_floating_point_v<F> ||
                       std::is_same_v<F, std::string>) {
    json.value(value);
  } else if constexpr (std::is_unsigned_v<F>) {
    json.value(static_cast<std::uint64_t>(value));
  } else {
    json.value(static_cast<std::int64_t>(value));
  }
}

// Row builders over a pointer to member M. Each takes an omit rule: none
// (always written), kOmitDefault (left out while the member equals its
// value in a default-constructed struct) or a predicate over the struct.

template <typename>
struct JsonMemberOf;
template <typename C, typename F>
struct JsonMemberOf<F C::*> {
  using Class = C;
};
template <auto M>
using JsonClassOf = typename JsonMemberOf<decltype(M)>::Class;

struct JsonOmitDefault {};
inline constexpr JsonOmitDefault kOmitDefault{};

template <auto M>
bool json_is_default(const JsonClassOf<M>& in) {
  static const JsonClassOf<M> defaults{};
  return in.*M == defaults.*M;
}

template <auto M>
constexpr JsonOmitRule<JsonClassOf<M>> json_omit_rule(JsonOmitDefault) {
  return &json_is_default<M>;
}
template <auto M>
constexpr JsonOmitRule<JsonClassOf<M>> json_omit_rule(
    JsonOmitRule<JsonClassOf<M>> when) {
  return when;
}

template <auto M>
void json_read_member(const JsonValue& value, const JsonScope& scope,
                      const std::string& key, JsonClassOf<M>& out) {
  json_read_value(value, scope, key, out.*M);
}

template <auto M>
void json_write_member(JsonWriter& json, const JsonClassOf<M>& in) {
  json_write_value(json, in.*M);
}

template <auto M, typename Omit = std::nullptr_t>
constexpr JsonField<JsonClassOf<M>> json_field(const char* key,
                                               Omit omit = nullptr) {
  return {key, &json_read_member<M>, &json_write_member<M>,
          json_omit_rule<M>(omit)};
}

/// An enum member read through `Parse` (string -> value, throwing on an
/// unknown name) and written through `Token` (value -> string); an
/// optional member writes the token of its value.
template <auto M, auto Parse, auto Token, typename Omit = std::nullptr_t>
constexpr JsonField<JsonClassOf<M>> json_token_field(const char* key,
                                                     Omit omit = nullptr) {
  using C = JsonClassOf<M>;
  return {key,
          [](const JsonValue& value, const JsonScope& scope,
             const std::string& k, C& out) {
            out.*M = Parse(json_read_string(value, k, scope.prefix));
          },
          [](JsonWriter& json, const C& in) {
            if constexpr (std::is_invocable_v<decltype(Token),
                                              decltype(in.*M)>) {
              json.value(Token(in.*M));
            } else {
              json.value(Token(*(in.*M)));
            }
          },
          json_omit_rule<M>(omit)};
}

/// A nested object member read and written with its own `Rows`.
template <auto M, const auto& Rows, typename Omit = std::nullptr_t>
constexpr JsonField<JsonClassOf<M>> json_object_field(const char* key,
                                                      Omit omit = nullptr) {
  using C = JsonClassOf<M>;
  return {key,
          [](const JsonValue& value, const JsonScope& scope,
             const std::string& k, C& out) {
            json_read_fields(value, scope.child(k), Rows, out.*M);
          },
          [](JsonWriter& json, const C& in) {
            json_write_object(json, Rows, in.*M);
          },
          json_omit_rule<M>(omit)};
}

/// A std::vector member written as an array of `Rows` objects; its
/// elements are named "<path>[]" in errors.
template <auto M, const auto& Rows, typename Omit = std::nullptr_t>
constexpr JsonField<JsonClassOf<M>> json_array_field(const char* key,
                                                     Omit omit = nullptr) {
  using C = JsonClassOf<M>;
  return {key,
          [](const JsonValue& value, const JsonScope& scope,
             const std::string& k, C& out) {
            const JsonScope array = scope.child(k);
            if (!value.is_array()) {
              throw std::invalid_argument{std::string{scope.prefix} + ": '" +
                                          array.path + "' must be an array"};
            }
            (out.*M).clear();
            const JsonScope element{scope.prefix, array.path + "[]", false};
            for (const JsonValue& item : value.as_array()) {
              json_read_fields(item, element, Rows, (out.*M).emplace_back());
            }
          },
          [](JsonWriter& json, const C& in) {
            json.begin_array();
            for (const auto& element : in.*M) {
              json_write_object(json, Rows, element);
            }
            json.end_array();
          },
          json_omit_rule<M>(omit)};
}

}  // namespace fedco::util
