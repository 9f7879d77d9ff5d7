#include "rl/checkpoint.h"

#include <cstring>
#include <fstream>

#include "nn/serialize.h"
#include "support/atomic_file.h"
#include "support/binary_io.h"
#include "support/check.h"

namespace eagle::rl {

namespace {

// Version 2 added Sample::eval_stream (the per-sample evaluation RNG
// stream number used by the parallel evaluation path). Writers emit v2;
// the reader still accepts v1 checkpoints, defaulting eval_stream to 0.
// The version digit in the magic comes from kCheckpointFormatVersion
// (checkpoint.h) so the tag can never drift from the format constant.
constexpr char kMagicV1[8] = {
    'E', 'A', 'G', 'L', 'C', 'K', 'P',
    static_cast<char>('0' + kCheckpointFormatVersion - 1)};
constexpr char kMagicV2[8] = {
    'E', 'A', 'G', 'L', 'C', 'K', 'P',
    static_cast<char>('0' + kCheckpointFormatVersion)};
constexpr char kEndMarker[8] = {'E', 'A', 'G', 'L', 'C', 'K', 'P', 'E'};

using support::BinaryReader;
using support::BinaryWriter;

void WriteSample(BinaryWriter& out, const core::Sample& sample) {
  out.I32Vector(sample.grouping);
  out.I32Vector(sample.group_devices);
  out.Pod(sample.logp);
  out.Pod(static_cast<std::int32_t>(sample.num_decisions));
  out.Pod(sample.eval_stream);
  out.Pod(static_cast<std::uint8_t>(sample.valid ? 1 : 0));
  out.Pod(sample.per_step_seconds);
  out.Pod(sample.reward);
  out.Pod(sample.advantage);
}

core::Sample ReadSample(BinaryReader& in, int version) {
  core::Sample sample;
  sample.grouping = in.I32Vector();
  sample.group_devices = in.I32Vector();
  sample.logp = in.Pod<double>();
  sample.num_decisions = in.Pod<std::int32_t>();
  if (version >= 2) sample.eval_stream = in.Pod<std::uint64_t>();
  sample.valid = in.Pod<std::uint8_t>() != 0;
  sample.per_step_seconds = in.Pod<double>();
  sample.reward = in.Pod<double>();
  sample.advantage = in.Pod<double>();
  return sample;
}

void WriteSamples(BinaryWriter& out, const std::vector<core::Sample>& samples) {
  out.Pod(static_cast<std::uint32_t>(samples.size()));
  for (const core::Sample& sample : samples) WriteSample(out, sample);
}

// No reserve from the stored count: the vector grows only as records
// actually read, so a corrupt count fails on the first missing one.
std::vector<core::Sample> ReadSamples(BinaryReader& in, int version) {
  std::vector<core::Sample> samples;
  const auto count = in.Pod<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    samples.push_back(ReadSample(in, version));
  }
  return samples;
}

void WriteResult(BinaryWriter& out, const TrainResult& result) {
  out.Pod(static_cast<std::uint8_t>(result.found_valid ? 1 : 0));
  out.Pod(result.best_per_step_seconds);
  out.Pod(result.best_found_at_hours);
  out.Pod(result.total_virtual_hours);
  out.Pod(static_cast<std::int32_t>(result.invalid_samples));
  out.Pod(static_cast<std::int32_t>(result.total_samples));
  out.I32Vector(result.best_placement.devices());
  out.Pod(static_cast<std::uint32_t>(result.history.size()));
  for (const HistoryPoint& point : result.history) {
    out.Pod(static_cast<std::int32_t>(point.sample_index));
    out.Pod(point.virtual_hours);
    out.Pod(point.per_step_seconds);
    out.Pod(point.best_so_far_seconds);
  }
}

TrainResult ReadResult(BinaryReader& in) {
  TrainResult result;
  result.found_valid = in.Pod<std::uint8_t>() != 0;
  result.best_per_step_seconds = in.Pod<double>();
  result.best_found_at_hours = in.Pod<double>();
  result.total_virtual_hours = in.Pod<double>();
  result.invalid_samples = in.Pod<std::int32_t>();
  result.total_samples = in.Pod<std::int32_t>();
  result.best_placement = sim::Placement::FromRaw(in.I32Vector());
  const auto history_size = in.Pod<std::uint32_t>();
  for (std::uint32_t i = 0; i < history_size; ++i) {
    HistoryPoint point;
    point.sample_index = in.Pod<std::int32_t>();
    point.virtual_hours = in.Pod<double>();
    point.per_step_seconds = in.Pod<double>();
    point.best_so_far_seconds = in.Pod<double>();
    result.history.push_back(point);
  }
  return result;
}

}  // namespace

std::string CheckpointFilePath(const std::string& dir,
                               const std::string& name) {
  return dir + "/" + name + ".ckpt";
}

bool SaveCheckpoint(const std::string& path, const nn::ParamStore& params,
                    const nn::Adam& optimizer, const CheckpointData& data) {
  // The temp-file-then-rename dance lives in WriteFileAtomic: a crash at
  // any instant leaves the previous good checkpoint loadable.
  return support::WriteFileAtomic(path, [&](std::ostream& stream) {
    BinaryWriter out(stream);
    out.Bytes(kMagicV2, sizeof(kMagicV2));
    nn::SaveParams(params, stream);
    optimizer.SaveState(stream);
    for (std::uint64_t s : data.rng_state) out.Pod(s);
    out.Pod(data.baseline_value);
    out.Pod(static_cast<std::uint8_t>(data.baseline_initialized));
    WriteResult(out, data.result);
    WriteSamples(out, data.pool);
    WriteSamples(out, data.batch);
    out.Pod(static_cast<std::int32_t>(data.since_ce));
    out.Blob(data.env_state);
    out.Blob(data.critic_state);
    out.Bytes(kEndMarker, sizeof(kEndMarker));
    return static_cast<bool>(stream);
  });
}

bool LoadCheckpoint(const std::string& path, nn::ParamStore& params,
                    nn::Adam& optimizer, CheckpointData* data) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) return false;
  BinaryReader in(stream, "checkpoint");
  char magic[8];
  in.Bytes(magic, sizeof(magic));
  int version = 0;
  if (std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) == 0) {
    version = kCheckpointFormatVersion;
  } else if (std::memcmp(magic, kMagicV1, sizeof(kMagicV1)) == 0) {
    version = kCheckpointFormatVersion - 1;
  }
  EAGLE_CHECK_MSG(version != 0, "bad checkpoint magic in " << path);
  nn::LoadParams(params, stream);
  optimizer.LoadState(stream);
  for (auto& s : data->rng_state) s = in.Pod<std::uint64_t>();
  data->baseline_value = in.Pod<double>();
  data->baseline_initialized = in.Pod<std::uint8_t>() != 0;
  data->result = ReadResult(in);
  data->pool = ReadSamples(in, version);
  data->batch = ReadSamples(in, version);
  data->since_ce = in.Pod<std::int32_t>();
  data->env_state = in.Blob();
  data->critic_state = in.Blob();
  char end_marker[8];
  in.Bytes(end_marker, sizeof(end_marker));
  EAGLE_CHECK_MSG(std::memcmp(end_marker, kEndMarker, sizeof(kEndMarker)) == 0,
                  "incomplete checkpoint " << path);
  return true;
}

}  // namespace eagle::rl
