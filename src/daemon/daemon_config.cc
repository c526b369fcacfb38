#include "src/daemon/daemon_config.h"

#include <charconv>
#include <limits>

namespace loom {

namespace {

std::string NormalizeKey(std::string_view key) {
  while (!key.empty() && key.front() == '-') {
    key.remove_prefix(1);
  }
  std::string out(key);
  for (char& c : out) {
    if (c == '-') {
      c = '_';
    }
  }
  return out;
}

Result<uint64_t> ParseUint(std::string_view key, std::string_view value) {
  uint64_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (ec != std::errc() || ptr != value.data() + value.size()) {
    return Status::InvalidArgument("bad value for " + std::string(key) + ": " +
                                   std::string(value));
  }
  return parsed;
}

Result<bool> ParseBool(std::string_view key, std::string_view value) {
  if (value == "true" || value == "1" || value == "on" || value == "yes") {
    return true;
  }
  if (value == "false" || value == "0" || value == "off" || value == "no") {
    return false;
  }
  return Status::InvalidArgument("bad boolean for " + std::string(key) + ": " +
                                 std::string(value));
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

Status ApplyDaemonConfigOption(DaemonOptions* options, std::string_view raw_key,
                               std::string_view value) {
  const std::string key = NormalizeKey(raw_key);
  LoomOptions& loom = options->loom;

  if (key == "dir") {
    loom.dir = std::string(value);
    return Status::Ok();
  }
  if (key == "archive_dir") {
    loom.archive_dir = std::string(value);
    return Status::Ok();
  }
  if (key == "sync_policy") {
    const std::optional<SyncPolicy> parsed = ParseSyncPolicy(value);
    if (!parsed.has_value()) {
      return Status::InvalidArgument("bad sync_policy (none|group|every_block): " +
                                     std::string(value));
    }
    loom.sync_policy = *parsed;
    return Status::Ok();
  }

  struct UintField {
    const char* name;
    uint64_t* u64 = nullptr;
    size_t* sz = nullptr;
    uint32_t* u32 = nullptr;
  };
  const UintField uint_fields[] = {
      {"chunk_size", nullptr, &loom.chunk_size, nullptr},
      {"record_block_size", nullptr, &loom.record_block_size, nullptr},
      {"record_retain_bytes", &loom.record_retain_bytes, nullptr, nullptr},
      {"demote_interval_ms", &loom.demote_interval_ms, nullptr, nullptr},
      {"demote_batch_chunks", nullptr, &loom.demote_batch_chunks, nullptr},
      {"summary_cache_bytes", nullptr, &loom.summary_cache_bytes, nullptr},
      {"group_commit_bytes", &loom.group_commit_bytes, nullptr, nullptr},
      {"group_commit_interval_ms", &loom.group_commit_interval_ms, nullptr, nullptr},
      {"summary_stage_records", nullptr, &loom.summary_stage_records, nullptr},
      {"ts_marker_period", nullptr, nullptr, &loom.ts_marker_period},
      {"channel_bytes", nullptr, &options->channel_bytes, nullptr},
      {"max_record_bytes", nullptr, &options->max_record_bytes, nullptr},
      {"self_telemetry_period_nanos", &options->self_telemetry_period_nanos, nullptr, nullptr},
  };
  for (const UintField& f : uint_fields) {
    if (key != f.name) {
      continue;
    }
    auto parsed = ParseUint(key, value);
    if (!parsed.ok()) {
      return parsed.status();
    }
    if (f.u64 != nullptr) {
      *f.u64 = parsed.value();
    } else if (f.sz != nullptr) {
      *f.sz = static_cast<size_t>(parsed.value());
    } else if (parsed.value() > std::numeric_limits<uint32_t>::max()) {
      // An error, not a wrap: 2^32 would otherwise become 0.
      return Status::InvalidArgument("value out of range for " + key + ": " +
                                     std::string(value));
    } else {
      *f.u32 = static_cast<uint32_t>(parsed.value());
    }
    return Status::Ok();
  }

  const struct {
    const char* name;
    bool* field;
  } bool_fields[] = {
      {"enable_chunk_index", &loom.enable_chunk_index},
      {"enable_timestamp_index", &loom.enable_timestamp_index},
      {"enable_latency_metrics", &loom.enable_latency_metrics},
      {"self_telemetry", &options->self_telemetry},
  };
  for (const auto& f : bool_fields) {
    if (key != f.name) {
      continue;
    }
    auto parsed = ParseBool(key, value);
    if (!parsed.ok()) {
      return parsed.status();
    }
    *f.field = parsed.value();
    return Status::Ok();
  }

  return Status::InvalidArgument("unknown daemon config key: " + key);
}

Result<DaemonOptions> ParseDaemonConfigArgs(const std::vector<std::string>& args,
                                            DaemonOptions base) {
  for (size_t i = 0; i < args.size(); ++i) {
    std::string_view arg = args[i];
    if (arg.size() < 3 || arg.substr(0, 2) != "--") {
      return Status::InvalidArgument("expected --key, got: " + std::string(arg));
    }
    std::string_view key = arg;
    std::string_view value;
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument("missing value for " + std::string(arg));
      }
      value = args[++i];
    }
    LOOM_RETURN_IF_ERROR(ApplyDaemonConfigOption(&base, key, value));
  }
  return base;
}

Result<DaemonOptions> ParseDaemonConfigText(std::string_view text, DaemonOptions base) {
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t nl = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    const size_t hash = line.find('#');
    if (hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = Trim(line);
    if (line.empty()) {
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("expected key = value, got: " + std::string(line));
    }
    LOOM_RETURN_IF_ERROR(
        ApplyDaemonConfigOption(&base, Trim(line.substr(0, eq)), Trim(line.substr(eq + 1))));
  }
  return base;
}

}  // namespace loom
