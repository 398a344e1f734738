#include "serve/fingerprint.hh"

#include <cstring>

namespace sap {

namespace {

// xxHash64's primes and rounds: four independent 64-bit lanes eat a
// 32-byte stripe per step, so the digest runs at memory speed instead
// of one dependent multiply per byte.
constexpr Digest kP1 = 0x9E3779B185EBCA87ULL;
constexpr Digest kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr Digest kP3 = 0x165667B19E3779F9ULL;
constexpr Digest kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr Digest kP5 = 0x27D4EB2F165667C5ULL;

Digest
rotl(Digest v, int r)
{
    return (v << r) | (v >> (64 - r));
}

Digest
load64(const unsigned char *p)
{
    Digest v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

std::uint32_t
load32(const unsigned char *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

Digest
xxRound(Digest acc, Digest input)
{
    acc += input * kP2;
    acc = rotl(acc, 31);
    return acc * kP1;
}

Digest
mergeRound(Digest acc, Digest lane)
{
    acc ^= xxRound(0, lane);
    return acc * kP1 + kP4;
}

/** xxHash64 of @p len bytes at @p data under @p seed. */
Digest
hashBytes(const void *data, std::size_t len, Digest seed)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    const unsigned char *const end = p + len;
    Digest h;
    if (len >= 32) {
        Digest v1 = seed + kP1 + kP2;
        Digest v2 = seed + kP2;
        Digest v3 = seed;
        Digest v4 = seed - kP1;
        for (; end - p >= 32; p += 32) {
            v1 = xxRound(v1, load64(p));
            v2 = xxRound(v2, load64(p + 8));
            v3 = xxRound(v3, load64(p + 16));
            v4 = xxRound(v4, load64(p + 24));
        }
        h = rotl(v1, 1) + rotl(v2, 7) + rotl(v3, 12) + rotl(v4, 18);
        h = mergeRound(h, v1);
        h = mergeRound(h, v2);
        h = mergeRound(h, v3);
        h = mergeRound(h, v4);
    } else {
        h = seed + kP5;
    }
    h += static_cast<Digest>(len);

    // Tail: the < 32 bytes after the last full stripe.
    for (; end - p >= 8; p += 8)
        h = rotl(h ^ xxRound(0, load64(p)), 27) * kP1 + kP4;
    if (end - p >= 4) {
        h = rotl(h ^ (static_cast<Digest>(load32(p)) * kP1), 23) * kP2 +
            kP3;
        p += 4;
    }
    for (; p < end; ++p)
        h = rotl(h ^ (*p * kP5), 11) * kP1;

    // Avalanche.
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
}

/** Seed carrying a shape, so equal bytes in another shape differ. */
Digest
shapeSeed(Index rows, Index cols)
{
    return (static_cast<Digest>(rows) << 32) ^ static_cast<Digest>(cols);
}

} // namespace

Digest
fingerprintDense(const Dense<Scalar> &a)
{
    return fingerprintDenseBytes(a.raw(), a.rows(), a.cols());
}

Digest
fingerprintDenseBytes(const void *elems, Index rows, Index cols)
{
    return hashBytes(elems,
                     static_cast<std::size_t>(rows * cols) *
                         sizeof(Scalar),
                     shapeSeed(rows, cols));
}

Digest
fingerprintVec(const Vec<Scalar> &v)
{
    return hashBytes(v.raw(), v.data().size() * sizeof(Scalar),
                     shapeSeed(v.size(), 1));
}

Digest
fingerprintString(const std::string &s)
{
    return hashBytes(s.data(), s.size(), 0);
}

Digest
combineDigests(Digest seed, Digest next)
{
    // Boost-style order-dependent mix.
    return seed ^ (next + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                   (seed >> 2));
}

} // namespace sap
