#pragma once
// Crash-safe file emission (DESIGN.md §9.2): write-to-temp, fsync, rename.
//
// Every durable artifact the toolchain emits — run reports, Chrome traces,
// bench JSON — goes through write_file_atomic so a crash (or SIGKILL) at
// any instant leaves either the complete previous file or the complete new
// file, never a torn one.
// POSIX rename(2) within one directory is atomic; the fsync before it
// makes sure the renamed bytes are the new content, not a cached prefix.
//
// Fault injection (validate/fault.hpp idiom): tests simulate a crash
// mid-write via AtomicWriteFault to prove the destination survives intact,
// and inject torn-write/bit-flip faults to show the failure modes the
// helper prevents.

#include <string>
#include <string_view>

namespace psched::obs {

/// Deliberate write-path mutations for self-tests. kNone (always, outside
/// tests) is correct behavior.
enum class AtomicWriteFault {
  kNone,
  /// Crash simulation: write only a prefix of the content to the temp file
  /// and stop before the rename. The destination is left untouched.
  kCrashBeforeRename,
  /// Torn destination: bypass the temp+rename discipline and write a
  /// truncated prefix straight to the destination (what a crash mid-write
  /// would do WITHOUT this helper). Exercises torn-artifact detection.
  kTornDestination,
  /// Flip one bit of the content before the (otherwise clean) atomic
  /// write. Exercises checksum verification.
  kBitFlip,
};

/// Atomically replace `path` with `content`: write `path` + ".tmp", flush
/// and fsync it, then rename over `path`. Returns false on any I/O failure
/// (the destination keeps its previous content). `fault` injects a
/// deliberate failure mode for self-tests; kNone is the production path.
bool write_file_atomic(const std::string& path, std::string_view content,
                       AtomicWriteFault fault = AtomicWriteFault::kNone);

}  // namespace psched::obs
