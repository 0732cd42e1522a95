// Buffered JSONL event writer: one JSON object per line, append-only.
#pragma once

#include <cstdio>
#include <string>

#include "obs/events.hpp"

namespace fedco::obs {

/// Writes events as JSON Lines. Each line is a flat object keyed by short
/// names ("t" slot, "e" kind, "u" user, plus kind-specific fields; see
/// docs/observability.md for the full schema). Lines are appended to a
/// pre-sized in-memory buffer and flushed in large writes, so per-event
/// cost is a few dozen bytes of formatting — cheap enough to leave on at
/// 100k users (the <=10% budget and its recipe are in
/// docs/observability.md). Integers are formatted
/// with std::to_chars; doubles use util::append_shortest_double, so every
/// value round-trips bit-identically through util::parse_json.
class JsonlEventWriter : public EventSink {
 public:
  /// Opens `path` for writing (truncates). Throws std::runtime_error if
  /// the file cannot be opened.
  explicit JsonlEventWriter(const std::string& path);

  JsonlEventWriter(const JsonlEventWriter&) = delete;
  JsonlEventWriter& operator=(const JsonlEventWriter&) = delete;

  /// Flushes remaining buffered lines and closes the file. Runs during
  /// exception unwind too, so a crashed run keeps its event prefix.
  ~JsonlEventWriter() override;

  void emit(const Event& event) override;
  void flush() override;

  /// Events formatted so far (buffered + flushed).
  [[nodiscard]] std::size_t events_written() const noexcept {
    return events_written_;
  }

 private:
  std::FILE* file_ = nullptr;
  std::string buf_;
  std::size_t events_written_ = 0;
};

}  // namespace fedco::obs
