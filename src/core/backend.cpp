#include "core/backend.h"

#include <stdexcept>

namespace apks {
namespace {

[[noreturn]] void throw_kind_mismatch(const SearchBackend& backend,
                                      const char* what, SchemeKind got) {
  throw std::invalid_argument("backend '" + std::string(backend.name()) +
                              "' given " + what + " of scheme '" +
                              std::string(scheme_name(got)) + "'");
}

}  // namespace

std::string_view error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kIo: return "io";
    case ErrorCode::kCorrupt: return "corrupt";
    case ErrorCode::kUnavailable: return "unavailable";
    case ErrorCode::kExhausted: return "exhausted";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kDeadlineExceeded: return "deadline-exceeded";
    case ErrorCode::kCancelled: return "cancelled";
  }
  return "?";
}

std::string_view scheme_name(SchemeKind kind) noexcept {
  switch (kind) {
    case SchemeKind::kApks: return "apks";
    case SchemeKind::kApksPlus: return "apks+";
    case SchemeKind::kMrqed: return "mrqed";
  }
  return "?";
}

SchemeKind parse_scheme_kind(std::string_view name) {
  if (name == "apks") return SchemeKind::kApks;
  if (name == "apks+" || name == "apksplus") return SchemeKind::kApksPlus;
  if (name == "mrqed") return SchemeKind::kMrqed;
  throw std::invalid_argument("unknown scheme '" + std::string(name) +
                              "' (use apks, apks+ or mrqed)");
}

void SearchBackend::decode_index_batch(
    std::span<const std::span<const std::uint8_t>> data,
    std::vector<AnyIndex>& out) const {
  for (const std::span<const std::uint8_t> record : data) {
    out.push_back(decode_index(record));
  }
}

void SearchBackend::require_index(const AnyIndex& index) const {
  if (index.empty()) {
    throw std::invalid_argument("backend '" + std::string(name()) +
                                "' given an empty index handle");
  }
  if (index.kind() != kind()) {
    throw_kind_mismatch(*this, "an index", index.kind());
  }
}

void SearchBackend::require_query(const AnyQuery& query) const {
  if (query.empty()) {
    throw std::invalid_argument("backend '" + std::string(name()) +
                                "' given an empty query handle");
  }
  if (query.kind() != kind()) {
    throw_kind_mismatch(*this, "a query", query.kind());
  }
}

void SearchBackend::require_prepared(const AnyPrepared& prepared) const {
  if (prepared.empty()) {
    throw std::invalid_argument("backend '" + std::string(name()) +
                                "' given an empty prepared-query handle");
  }
  if (prepared.kind() != kind()) {
    throw_kind_mismatch(*this, "a prepared query", prepared.kind());
  }
}

}  // namespace apks
