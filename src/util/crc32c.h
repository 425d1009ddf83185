#pragma once

#include <cstddef>
#include <cstdint>

namespace glint::util {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
/// checksum used by the WAL / snapshot formats (the same choice as LevelDB,
/// RocksDB, and ext4 metadata: better error-detection properties than
/// CRC-32/zlib for short records, and hardware-accelerated on most CPUs).
/// On x86-64 CPUs with SSE4.2 it runs the `crc32` instruction, 8 bytes per
/// step; elsewhere a portable slicing-by-4 table. The choice is made once,
/// at first use, from CPUID; both give the same checksum.
///
/// `Crc32c(data, n)` computes the checksum of one buffer;
/// `Crc32cExtend(crc, data, n)` continues a running checksum so a record
/// can be checksummed in pieces.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

/// The two implementations Crc32cExtend chooses between, exposed so the
/// tests can hold them to each other. Crc32cExtendHardware may only run
/// when Crc32cHardwareAvailable() (off x86-64 it is the table).
uint32_t Crc32cExtendTable(uint32_t crc, const void* data, size_t n);
uint32_t Crc32cExtendHardware(uint32_t crc, const void* data, size_t n);
bool Crc32cHardwareAvailable();

}  // namespace glint::util
