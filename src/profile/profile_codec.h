// Byte codec for a profile and the sids its run value-profiled: the blob a
// trace cache keeps of a baseline run's profile (harness/experiment.h), so
// a cache hit primes the compiler without interpreting.
//
// The bytes are one support/wire frame (magic "SPTP", version 1, kind 0)
// whose FNV-1a checksum rejects truncated or bit-flipped files. The
// payload is fixed-width integers in host byte order, like the frame
// header, with every table in ascending key order, so equal profiles
// encode to identical bytes.
#pragma once

#include <optional>
#include <string>
#include <unordered_set>

#include "profile/profile_data.h"

namespace spt::profile {

/// A profile plus the sids its run value-profiled. `data.values` holds
/// stats for the tracked sids that executed at least twice; a request for
/// any tracked sid is answered exactly by projecting `data`.
struct TrackedProfile {
  ProfileData data;
  std::unordered_set<ir::StaticId> tracked;
};

std::string encodeProfile(const TrackedProfile& profile);

/// Decodes encodeProfile's bytes; nullopt with `error` set when they are
/// not a complete, checksummed version-1 profile.
std::optional<TrackedProfile> decodeProfile(const std::string& bytes,
                                            std::string* error = nullptr);

}  // namespace spt::profile
