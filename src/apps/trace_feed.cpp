#include "apps/trace_feed.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

namespace fedco::apps {

TraceFleet load_arrival_trace_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw std::runtime_error{
        "load_arrival_trace_dir: not a readable directory: " + dir};
  }
  std::vector<std::string> files;
  for (const fs::directory_entry& entry : fs::directory_iterator{dir, ec}) {
    if (entry.path().extension() == ".csv") {
      files.push_back(entry.path().string());
    }
  }
  if (ec) {
    throw std::runtime_error{"load_arrival_trace_dir: cannot list " + dir +
                             ": " + ec.message()};
  }
  if (files.empty()) {
    throw std::runtime_error{"load_arrival_trace_dir: no .csv traces in " +
                             dir};
  }
  std::sort(files.begin(), files.end());

  std::vector<std::vector<ArrivalEvent>> per_file;
  per_file.reserve(files.size());
  for (const std::string& file : files) {
    per_file.push_back(load_arrival_trace_csv(file));
  }
  return TraceFleet{std::move(per_file)};
}

TraceFleet load_trace_fleet(const std::string& dir, const std::string& path) {
  if (!dir.empty()) return load_arrival_trace_dir(dir);
  if (path.empty()) return {};
  std::vector<std::vector<ArrivalEvent>> one_file;
  one_file.push_back(load_arrival_trace_csv(path));
  return TraceFleet{std::move(one_file)};
}

}  // namespace fedco::apps
