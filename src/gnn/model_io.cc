#include "gnn/model_io.h"

#include <cstdio>
#include <utility>
#include <vector>

#include "util/binio.h"
#include "util/crc32c.h"
#include "util/fault.h"
#include "util/file_io.h"

namespace glint::gnn {

namespace {

using util::ErrnoStatus;

constexpr uint32_t kModelMagic = 0x474d444cu;  // "GMDL"
constexpr uint32_t kDriftMagic = 0x46524447u;  // "GDRF"
constexpr uint32_t kVersion = 2;

/// magic | version | payload_len | crc32c(payload)
template <class IO, class U32>
bool HeaderFields(IO& io, uint32_t magic, U32& version, U32& len, U32& crc) {
  return io.Const32(magic, "magic") && io.U32(version) && io.U32(len) &&
         io.U32(crc);
}

const Matrix& Value(const Parameter* p) { return p->value; }
Matrix& Value(Matrix& m) { return m; }

/// The model payload: the parameter count, then each parameter's
/// i32 rows | i32 cols | rows * cols f32. Encoded from the model's
/// parameters, decoded into matrices that LoadModel checks against them.
template <class IO, class Params>
bool ParamFields(IO& io, Params& params) {
  return io.List(params, util::ListBound{"parameter", 2 * sizeof(int32_t)},
                 [&io](auto& p) {
                   auto& m = Value(p);
                   return io.I32(m.rows) && io.I32(m.cols) &&
                          io.F32s(m.data, int64_t{m.rows} * m.cols);
                 });
}

std::vector<char> EncodeParams(GraphModel* model) {
  const std::vector<Parameter*> params = model->Parameters();
  return util::EncodeAll([&](auto& io) { return ParamFields(io, params); });
}

/// The file's bytes: the header, then `payload`.
std::vector<char> EncodeContainer(uint32_t magic,
                                  const std::vector<char>& payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = util::Crc32c(payload.data(), payload.size());
  std::vector<char> bytes = util::EncodeAll(
      [&](auto& io) { return HeaderFields(io, magic, kVersion, len, crc); });
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

/// Writes `payload` under the magic/version/len/crc header, staged to a
/// temp file and renamed so a crash mid-save never leaves a half-written
/// file where a good one used to be.
Status SaveContainer(uint32_t magic, const std::vector<char>& payload,
                     const std::string& path) {
  const std::vector<char> bytes = EncodeContainer(magic, payload);
  const std::string tmp = path + ".tmp";
  GLINT_FAULT_POINT("model.save.open");
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return ErrnoStatus("cannot open for write", tmp);
  auto write_all = [&]() -> Status {
    GLINT_FAULT_POINT("model.save.write");
    if (std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
      return ErrnoStatus("cannot write model", tmp);
    }
    GLINT_FAULT_POINT("model.save.flush");
    if (std::fflush(f) != 0) return ErrnoStatus("cannot flush model", tmp);
    return Status::OK();
  };
  Status st = write_all();
  std::fclose(f);
  if (!st.ok()) {
    std::remove(tmp.c_str());
    return st;
  }
  GLINT_FAULT_POINT("model.save.rename");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return ErrnoStatus("cannot rename model", tmp);
  }
  return Status::OK();
}

/// Reads a container written by SaveContainer whole and authenticates it.
/// On OK `*payload` holds the payload bytes, which passed the CRC;
/// structural validation is the caller's.
Status LoadContainer(uint32_t magic, const std::string& path,
                     std::vector<char>* payload) {
  GLINT_FAULT_POINT("model.load.open");
  GLINT_FAULT_POINT("model.load.read");
  Result<std::vector<char>> file = util::ReadFile(path);
  if (!file.ok()) return Status::IOError(file.status().message());
  *payload = std::move(file).value();

  util::ByteReader r(*payload);
  util::LayoutReader io(&r);
  uint32_t version = 0, len = 0, crc = 0;
  if (!HeaderFields(io, magic, version, len, crc)) {
    return Status::IOError("bad model file magic: " + path);
  }
  if (version != kVersion) {
    return Status::FailedPrecondition(
        "model format version " + std::to_string(version) + " (want " +
        std::to_string(kVersion) + "): " + path);
  }
  // A byte more or less than the header declares means the file is not
  // what SaveContainer wrote.
  if (len != r.remaining()) {
    return Status::IOError("truncated or oversized model file: " + path);
  }
  payload->erase(payload->begin(),
                 payload->begin() + static_cast<ptrdiff_t>(r.pos()));
  if (util::Crc32c(payload->data(), payload->size()) != crc) {
    return Status::IOError("model checksum mismatch: " + path);
  }
  return Status::OK();
}

}  // namespace

Status SaveModel(GraphModel* model, const std::string& path) {
  return SaveContainer(kModelMagic, EncodeParams(model), path);
}

Status LoadModel(GraphModel* model, const std::string& path) {
  std::vector<char> payload;
  GLINT_RETURN_IF_ERROR(LoadContainer(kModelMagic, path, &payload));

  // The bytes are authentic: a payload the field list cannot decode is
  // corrupt, and a decoded one that does not fit the model is a
  // model/file architecture disagreement.
  util::ByteReader r(payload);
  util::LayoutReader io(&r);
  std::vector<Matrix> values;
  if (!ParamFields(io, values)) {
    return Status::IOError("truncated model payload: " + path);
  }
  const std::vector<Parameter*> params = model->Parameters();
  if (values.size() != params.size()) {
    return Status::FailedPrecondition(
        "model architecture mismatch (" + std::to_string(values.size()) +
        " vs " + std::to_string(params.size()) + " parameters): " + path);
  }
  for (size_t i = 0; i < params.size(); ++i) {
    if (values[i].rows != params[i]->value.rows ||
        values[i].cols != params[i]->value.cols) {
      return Status::FailedPrecondition("parameter shape mismatch: " + path);
    }
  }
  if (!r.exhausted()) {
    return Status::FailedPrecondition("trailing model payload bytes: " + path);
  }
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value.data = std::move(values[i].data);
  }
  return Status::OK();
}

size_t ModelBytes(GraphModel* model) {
  return EncodeContainer(kModelMagic, EncodeParams(model)).size();
}

Status SaveDriftStats(const DriftDetector& drift, const std::string& path) {
  if (!drift.fitted()) {
    return Status::FailedPrecondition("drift detector not fitted: " + path);
  }
  util::ByteWriter payload;
  drift.SerializeTo(&payload);
  return SaveContainer(kDriftMagic, payload.buffer(), path);
}

Status LoadDriftStats(DriftDetector* drift, const std::string& path) {
  std::vector<char> payload;
  GLINT_RETURN_IF_ERROR(LoadContainer(kDriftMagic, path, &payload));
  util::ByteReader r(payload);
  if (!drift->RestoreFrom(&r) || !r.exhausted()) {
    return Status::FailedPrecondition("malformed drift statistics: " + path);
  }
  return Status::OK();
}

}  // namespace glint::gnn
