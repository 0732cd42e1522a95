#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace fedco::util {
namespace {

TEST(JsonWriter, FlatObject) {
  JsonWriter json;
  json.begin_object()
      .member("name", "fedco")
      .member("count", std::uint64_t{3})
      .member("ratio", 0.5)
      .member("ok", true)
      .end_object();
  EXPECT_EQ(json.str(),
            R"({"name":"fedco","count":3,"ratio":0.5,"ok":true})");
}

TEST(JsonWriter, NestedContainers) {
  JsonWriter json;
  json.begin_object().key("xs").begin_array();
  json.value(std::int64_t{1}).value(std::int64_t{2});
  json.begin_object().member("deep", false).end_object();
  json.end_array().key("n").null().end_object();
  EXPECT_EQ(json.str(), R"({"xs":[1,2,{"deep":false}],"n":null})");
}

TEST(JsonWriter, EscapesStrings) {
  EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(JsonWriter::escape(std::string{"\x01"}), "\\u0001");
  JsonWriter json;
  json.value("quote \" here");
  EXPECT_EQ(json.str(), R"("quote \" here")");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull) {
  JsonWriter json;
  json.begin_array()
      .value(std::numeric_limits<double>::quiet_NaN())
      .value(std::numeric_limits<double>::infinity())
      .value(1.5)
      .end_array();
  EXPECT_EQ(json.str(), "[null,null,1.5]");
}

TEST(JsonWriter, StructuralErrors) {
  {
    JsonWriter json;
    json.begin_object();
    EXPECT_THROW(json.value(1.0), std::logic_error);  // value without key
  }
  {
    JsonWriter json;
    json.begin_array();
    EXPECT_THROW(json.key("x"), std::logic_error);  // key inside array
  }
  {
    JsonWriter json;
    json.begin_object();
    EXPECT_THROW(json.end_array(), std::logic_error);  // mismatched close
  }
  {
    JsonWriter json;
    json.begin_object();
    EXPECT_THROW((void)json.str(), std::logic_error);  // unterminated
  }
  {
    JsonWriter json;
    json.value(1.0);
    EXPECT_THROW(json.value(2.0), std::logic_error);  // two roots
  }
  {
    JsonWriter json;
    json.begin_object().key("k");
    EXPECT_THROW(json.end_object(), std::logic_error);  // dangling key
  }
}

TEST(JsonWriter, RootScalarsAllowed) {
  JsonWriter json;
  json.value(42.0);
  EXPECT_EQ(json.str(), "42");
}

// --------------------------------------------------------------- parser

TEST(JsonParser, ParsesScalarsAndContainers) {
  const JsonValue doc = parse_json(
      R"({"name":"fedco","count":3,"ratio":0.5,"ok":true,"none":null,)"
      R"("values":[1,2.5,-3e2]})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("name")->as_string(), "fedco");
  EXPECT_EQ(doc.find("count")->as_number(), 3.0);
  EXPECT_EQ(doc.find("ratio")->as_number(), 0.5);
  EXPECT_TRUE(doc.find("ok")->as_bool());
  EXPECT_TRUE(doc.find("none")->is_null());
  const auto& values = doc.find("values")->as_array();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0].as_number(), 1.0);
  EXPECT_EQ(values[1].as_number(), 2.5);
  EXPECT_EQ(values[2].as_number(), -300.0);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParser, UnescapesStrings) {
  const JsonValue doc =
      parse_json(R"({"s":"quote \" slash \\ nl \n tab \t u A"})");
  EXPECT_EQ(doc.find("s")->as_string(), "quote \" slash \\ nl \n tab \t u A");
}

TEST(JsonParser, WriterOutputRoundTrips) {
  JsonWriter json;
  json.begin_object()
      .member("pi", 3.141592653589793)
      .member("tiny", 1e-300)
      .member("neg", -0.001)
      .key("nested")
      .begin_object()
      .member("deep", std::string{"va\"lue"})
      .end_object()
      .end_object();
  const JsonValue doc = parse_json(json.str());
  // Shortest-round-trip formatting: parse returns bit-identical doubles.
  EXPECT_EQ(doc.find("pi")->as_number(), 3.141592653589793);
  EXPECT_EQ(doc.find("tiny")->as_number(), 1e-300);
  EXPECT_EQ(doc.find("neg")->as_number(), -0.001);
  EXPECT_EQ(doc.find("nested")->find("deep")->as_string(), "va\"lue");
}

TEST(JsonParser, RejectsMalformedDocuments) {
  EXPECT_THROW((void)parse_json(""), std::invalid_argument);
  EXPECT_THROW((void)parse_json("{"), std::invalid_argument);
  EXPECT_THROW((void)parse_json(R"({"a":1,})"), std::invalid_argument);
  EXPECT_THROW((void)parse_json(R"({"a" 1})"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("[1,2"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("tru"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("1 2"), std::invalid_argument);
  EXPECT_THROW((void)parse_json(R"("unterminated)"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("1.2.3"), std::invalid_argument);
}

TEST(JsonParser, TypeMismatchesThrowOnAccess) {
  const JsonValue doc = parse_json(R"({"n":1})");
  EXPECT_THROW((void)doc.find("n")->as_string(), std::invalid_argument);
  EXPECT_THROW((void)doc.find("n")->as_bool(), std::invalid_argument);
  EXPECT_THROW((void)doc.find("n")->as_array(), std::invalid_argument);
  EXPECT_THROW((void)doc.as_number(), std::invalid_argument);
}

TEST(JsonParser, DeepNestingIsBounded) {
  std::string hostile;
  for (int i = 0; i < 1000; ++i) hostile += '[';
  EXPECT_THROW((void)parse_json(hostile), std::invalid_argument);
}

// ------------------------------------------------------------- field tables

enum class Color { kRed, kGreen };

constexpr JsonToken<Color> kColors[] = {
    {Color::kRed, "red"},
    {Color::kGreen, "green"},
    {Color::kGreen, "verde"},  // parse-only alias
};

const char* color_token(Color c) noexcept { return json_token(kColors, c); }
Color parse_color(const std::string& name) {
  return json_parse_token(kColors, name, "color");
}

struct Point {
  std::int64_t x = 0;
  std::int64_t y = -1;

  friend bool operator==(const Point&, const Point&) = default;
};

struct Shape {
  std::string name = "shape";
  std::size_t sides = 3;
  std::optional<double> scale;
  Color color = Color::kRed;
  Point origin;
  std::vector<Point> path;
  bool hidden = false;
};

constexpr JsonField<Point> kPointFields[] = {
    json_field<&Point::x>("x"),
    json_field<&Point::y>("y", kOmitDefault),
};

constexpr JsonField<Shape> kShapeFields[] = {
    json_field<&Shape::name>("name"),
    json_field<&Shape::sides>("sides"),
    json_field<&Shape::scale>("scale", kOmitDefault),
    json_token_field<&Shape::color, parse_color, color_token>("color"),
    json_object_field<&Shape::origin, kPointFields>("origin"),
    json_array_field<&Shape::path, kPointFields>("path", kOmitDefault),
    json_field<&Shape::hidden>(
        "hidden", [](const Shape& s) { return !s.hidden; }),
    {"edges", json_read_member<&Shape::sides>},  // load-only alias
};

std::string write_shape(const Shape& shape) {
  JsonWriter json;
  json_write_object(json, kShapeFields, shape);
  return json.str();
}

Shape read_shape(const std::string& text) {
  Shape shape;
  json_read_fields(parse_json(text), {"shape_io", "shape", true},
                   kShapeFields, shape);
  return shape;
}

std::string read_error(const std::string& text) {
  try {
    (void)read_shape(text);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "no error";
}

TEST(JsonFields, WriterWalksRowsInOrderAndOmitsByRule) {
  EXPECT_EQ(write_shape(Shape{}),
            R"({"name":"shape","sides":3,"color":"red","origin":{"x":0}})");
  Shape shape;
  shape.scale = 2.5;
  shape.color = Color::kGreen;
  shape.origin = {4, 5};
  shape.path = {{1, -1}, {2, 7}};
  shape.hidden = true;
  EXPECT_EQ(write_shape(shape),
            R"({"name":"shape","sides":3,"scale":2.5,"color":"green",)"
            R"("origin":{"x":4,"y":5},"path":[{"x":1},{"x":2,"y":7}],)"
            R"("hidden":true})");
}

TEST(JsonFields, ReaderRoundTripsAndAcceptsLoadOnlyRows) {
  const Shape shape = read_shape(
      R"({"edges":5,"scale":0.5,"color":"VERDE","origin":{"x":2},)"
      R"("path":[{"x":1,"y":2}],"hidden":true})");
  EXPECT_EQ(shape.sides, 5u);
  EXPECT_EQ(shape.scale, 0.5);
  EXPECT_EQ(shape.color, Color::kGreen);
  EXPECT_EQ(shape.origin.x, 2);
  EXPECT_EQ(shape.origin.y, -1);
  ASSERT_EQ(shape.path.size(), 1u);
  EXPECT_EQ(shape.path[0].y, 2);
  EXPECT_TRUE(shape.hidden);
  EXPECT_EQ(write_shape(read_shape(write_shape(shape))), write_shape(shape));
  EXPECT_EQ(color_token(Color::kGreen), std::string{"green"});
}

TEST(JsonFields, ErrorsNameTheLoaderAndThePath) {
  EXPECT_EQ(read_error("[]"), "shape_io: 'shape' must be an object");
  EXPECT_EQ(read_error(R"({"size":1})"),
            "shape_io: unknown key 'shape.size'");
  EXPECT_EQ(read_error(R"({"sides":-1})"),
            "shape_io: 'sides' must be a non-negative integer");
  EXPECT_EQ(read_error(R"({"scale":"big"})"),
            "shape_io: 'scale' must be a number");
  EXPECT_EQ(read_error(R"({"color":"blue"})"), "unknown color 'blue'");
  EXPECT_EQ(read_error(R"({"origin":{"z":1}})"),
            "shape_io: unknown key 'origin.z'");
  EXPECT_EQ(read_error(R"({"path":{}})"), "shape_io: 'path' must be an array");
  EXPECT_EQ(read_error(R"({"path":[1]})"),
            "shape_io: 'path[]' must be an object");
  EXPECT_EQ(read_error(R"({"path":[{"x":0.5}]})"),
            "shape_io: 'x' must be an integer");
}

}  // namespace
}  // namespace fedco::util
