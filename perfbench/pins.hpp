// Pinned artifact fingerprints for seeds 0..31: the campus fingerprint
// (CampusResult::fingerprint of the 4-cell skewed campus, shared by
// campus_serial and campus_sharded), the radio floor's
// RadioFloorResult::fingerprint, and FNV-1a over the plant_fingerprint of
// each of a federation call's four runs.
// Regenerate with `perfbench --print-pins 32 --profile <file>` only for a
// change that is meant to alter the artifacts; any other change must leave
// every pin matching.
#pragma once

#include <cstdint>

namespace perfbench {

struct Pin {
  const char* key;  ///< "campus" (both campus workloads), or a workload name
  std::uint64_t seed;
  std::uint64_t fingerprint;
};

inline constexpr Pin kPins[] = {
    {"campus", 0, 0xb97b7dded2736254ULL},
    {"radio_floor", 0, 0xe948597064b6a62aULL},
    {"flowmon_federation", 0, 0x3264cfaaf1d777a8ULL},
    {"campus", 1, 0x44b04a221ea12243ULL},
    {"radio_floor", 1, 0x301b7df05e86c83dULL},
    {"flowmon_federation", 1, 0xd8b4245a98945b8fULL},
    {"campus", 2, 0x3ab61225d08b5e37ULL},
    {"radio_floor", 2, 0x40dacc8eb2c13feeULL},
    {"flowmon_federation", 2, 0x99022d5d98165f83ULL},
    {"campus", 3, 0x841789c7d31db9ebULL},
    {"radio_floor", 3, 0xab059b7aa8610d64ULL},
    {"flowmon_federation", 3, 0x46d8536f00b01bc8ULL},
    {"campus", 4, 0x4832a0421b01712dULL},
    {"radio_floor", 4, 0x972cf15e294581efULL},
    {"flowmon_federation", 4, 0x62fa1670cd33bfa5ULL},
    {"campus", 5, 0x7628d8501cc248d1ULL},
    {"radio_floor", 5, 0x7619cc3594aab70fULL},
    {"flowmon_federation", 5, 0xfd0acb0b9fdb3d8aULL},
    {"campus", 6, 0x29dd1172ae335021ULL},
    {"radio_floor", 6, 0xf600ad81c50ebfc9ULL},
    {"flowmon_federation", 6, 0x0884142f0afdb0e5ULL},
    {"campus", 7, 0x14528426604dc3f4ULL},
    {"radio_floor", 7, 0x490694948020dca4ULL},
    {"flowmon_federation", 7, 0xfcbe5211e75dfcb6ULL},
    {"campus", 8, 0x9bd86e22410e71e3ULL},
    {"radio_floor", 8, 0xb4338014671ea77aULL},
    {"flowmon_federation", 8, 0x1481d6cbe0da73daULL},
    {"campus", 9, 0x3dfbad5ecace302bULL},
    {"radio_floor", 9, 0xc94c169edff0035eULL},
    {"flowmon_federation", 9, 0x99f25d49c75f0824ULL},
    {"campus", 10, 0x433327101df23132ULL},
    {"radio_floor", 10, 0xe02ade161e24359dULL},
    {"flowmon_federation", 10, 0x1d254e46923ec06aULL},
    {"campus", 11, 0x1f564df96e9b8428ULL},
    {"radio_floor", 11, 0xc85191c466bb633aULL},
    {"flowmon_federation", 11, 0xd673939de33864e8ULL},
    {"campus", 12, 0x1a5776f0f42396beULL},
    {"radio_floor", 12, 0x14b4b4e7e004e67fULL},
    {"flowmon_federation", 12, 0x949e6450b840dcf1ULL},
    {"campus", 13, 0x5b33c16a66ab27b4ULL},
    {"radio_floor", 13, 0x1c85e73a4967bad1ULL},
    {"flowmon_federation", 13, 0xf5d63f0c3266ad99ULL},
    {"campus", 14, 0x890237c4a2fd5d49ULL},
    {"radio_floor", 14, 0x2009035ece9b4169ULL},
    {"flowmon_federation", 14, 0x8515625941af142fULL},
    {"campus", 15, 0x6b5deeb6cea655efULL},
    {"radio_floor", 15, 0xcb0abed405970972ULL},
    {"flowmon_federation", 15, 0x2ddf29744fa91db0ULL},
    {"campus", 16, 0xc2812201e02d6df3ULL},
    {"radio_floor", 16, 0x1939046842dbd47fULL},
    {"flowmon_federation", 16, 0xc69cd38a4c96cd47ULL},
    {"campus", 17, 0x0109dcda54dc80fbULL},
    {"radio_floor", 17, 0x5e4dc537e1ee5fb8ULL},
    {"flowmon_federation", 17, 0x5112ee481b068c3eULL},
    {"campus", 18, 0xcfa369c12aa11c62ULL},
    {"radio_floor", 18, 0xa844c3eefa513b10ULL},
    {"flowmon_federation", 18, 0xb23a3c6197bc315eULL},
    {"campus", 19, 0xc89dea1945068ff8ULL},
    {"radio_floor", 19, 0x7fccf88137b4c697ULL},
    {"flowmon_federation", 19, 0x2fc9c6e407b2284bULL},
    {"campus", 20, 0x87ee180d8d42eafcULL},
    {"radio_floor", 20, 0x8244166e221f4ba4ULL},
    {"flowmon_federation", 20, 0x667a9ffae3c6b7f2ULL},
    {"campus", 21, 0xa0694d4ee95266bdULL},
    {"radio_floor", 21, 0x0a8153216bb9b88fULL},
    {"flowmon_federation", 21, 0xff8765ecad75b4a5ULL},
    {"campus", 22, 0x2d3298bcaa29d03fULL},
    {"radio_floor", 22, 0x6a37c22977241eb0ULL},
    {"flowmon_federation", 22, 0xad022798068837dfULL},
    {"campus", 23, 0xde3b7b5a51b6ed03ULL},
    {"radio_floor", 23, 0x50c64b20f6736416ULL},
    {"flowmon_federation", 23, 0xc8dfcb1b25298adbULL},
    {"campus", 24, 0x38a7e08bb700b97aULL},
    {"radio_floor", 24, 0x678a1874df224ec7ULL},
    {"flowmon_federation", 24, 0x66bad407b1822a24ULL},
    {"campus", 25, 0xf1ef4a8977dab377ULL},
    {"radio_floor", 25, 0x5e560f16038b9c9fULL},
    {"flowmon_federation", 25, 0xb0bd9bb05a22ed2dULL},
    {"campus", 26, 0xfc3cdadc0f657287ULL},
    {"radio_floor", 26, 0xa93e0a2d3c313ce1ULL},
    {"flowmon_federation", 26, 0xc97262b205dae2c9ULL},
    {"campus", 27, 0xaa1e826f99e04d8aULL},
    {"radio_floor", 27, 0xef401cd4cf36b9e6ULL},
    {"flowmon_federation", 27, 0x4d8038bc909e8e09ULL},
    {"campus", 28, 0xd0343b2440f0786bULL},
    {"radio_floor", 28, 0x48adf9ecdb4c27d3ULL},
    {"flowmon_federation", 28, 0xa40b379ca940bf87ULL},
    {"campus", 29, 0xe92e4f9e9984757eULL},
    {"radio_floor", 29, 0x81c35254346162d1ULL},
    {"flowmon_federation", 29, 0x49dadc53d3860dafULL},
    {"campus", 30, 0xe594536a65623dd8ULL},
    {"radio_floor", 30, 0x28566a1a000c224fULL},
    {"flowmon_federation", 30, 0x3df9f7b2be5f2a3fULL},
    {"campus", 31, 0x4c98e8d816be0aa0ULL},
    {"radio_floor", 31, 0x1c3e814679c76ecfULL},
    {"flowmon_federation", 31, 0xc6557b2bab86754dULL},
};

}  // namespace perfbench
