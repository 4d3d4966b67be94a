/**
 * @file crc32.hpp
 * CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) over a byte
 * range. Checkpoint files carry the payload CRC in their header so a
 * truncated or bit-flipped snapshot is rejected with a precise error
 * instead of deserializing garbage into block storage.
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace vibe {
namespace io {

namespace detail {

inline const std::array<std::uint32_t, 256>&
crc32Table()
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table;
}

} // namespace detail

/**
 * CRC-32 of `size` bytes at `data`. Pass a previous result as `crc` to
 * continue it: crc32(b, nb, crc32(a, na)) equals the CRC of a then b.
 */
inline std::uint32_t
crc32(const void* data, std::size_t size, std::uint32_t crc = 0)
{
    const auto& table = detail::crc32Table();
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    crc ^= 0xffffffffu;
    for (std::size_t i = 0; i < size; ++i)
        crc = table[(crc ^ bytes[i]) & 0xffu] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

} // namespace io
} // namespace vibe
