/**
 * @file
 * Pinned chaos sweep (ctest label `sweep`): 352 seeded soaks across
 * square, line and rectangular meshes and fault mixes, each its own
 * test, each pinning the stats fingerprint and the violation count. A
 * refactor that must not change behaviour keeps every row; a behaviour
 * change re-pins the moved rows and lists old and new values in
 * CHANGES.md.
 *
 * The 78 rows with a non-zero violation count are known failures,
 * pinned as they are so the row catches any change in how they fail.
 * ROADMAP.md item 1 traces the 53 square-mesh ones to Bug A (a peer's
 * recovery drops stores to healthy peers) or Bug B (route-around
 * deadlocks the mesh; the three 3x3 partition rows, seeds 1, 4 and
 * 11, are Bug B); the 25 non-square ones (1x8, 8x1, 2x4, 3x5) are not
 * traced yet. The fix for those bugs re-pins these rows at 0.
 *
 * Re-pin: run `shrimp_explore chaos --width W --height H --seed S`
 * with the row's mode flags and copy its `stats_fingerprint` and
 * violation count, or read them from this test's failure message.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>

#include "core/chaos.hh"

namespace shrimp
{
namespace
{

enum Mode
{
    DEFAULTS,       //!< ChaosParams as they come
    CRASH_ONLY,     //!< --flaps 0 --bursts 0
    FLAP_ONLY,      //!< --crashes 0 --bursts 0
    PARTITIONS,     //!< --partitions 2
};

/** The enumerator's own name, so a failure message pastes as a row. */
const char *
modeName(Mode m)
{
    switch (m) {
      case DEFAULTS: return "DEFAULTS";
      case CRASH_ONLY: return "CRASH_ONLY";
      case FLAP_ONLY: return "FLAP_ONLY";
      case PARTITIONS: return "PARTITIONS";
    }
    return "?";
}

struct SweepRow
{
    unsigned width;         //!< mesh columns
    Mode mode;
    std::uint64_t seed;
    std::uint64_t fingerprint;
    std::uint32_t violations;
    /** Mesh rows, or 0 for a square mesh. It comes last and is 0 on
     *  the square rows so that their bytes, which gtest prints into
     *  each ctest name, stay as they were before the other shapes. */
    unsigned height = 0;

    unsigned rows() const { return height ? height : width; }
};

const SweepRow kSweep[] = {
    // 2x2, defaults
    {2, DEFAULTS, 1, 0x931cdf7ded6a0092ULL, 0},
    {2, DEFAULTS, 2, 0x229b3df8ec43f4afULL, 0},
    {2, DEFAULTS, 3, 0x2f4aecc715bce7ebULL, 0},
    {2, DEFAULTS, 4, 0x811dcd3087be6459ULL, 0},
    {2, DEFAULTS, 5, 0x98fa4b2b8bceabebULL, 0},
    {2, DEFAULTS, 6, 0x82130d61b3c606b7ULL, 0},
    {2, DEFAULTS, 7, 0x0d5c16616c7ef8fcULL, 0},
    {2, DEFAULTS, 8, 0xf2a0868ed09bb87bULL, 0},
    {2, DEFAULTS, 9, 0x5c85a631d7045d99ULL, 0},
    {2, DEFAULTS, 10, 0x5920500032d068baULL, 0},
    {2, DEFAULTS, 11, 0xb110113bdbcc8d9fULL, 0},
    {2, DEFAULTS, 12, 0x714fe0540d9a6406ULL, 0},
    {2, DEFAULTS, 13, 0x73576135fd923e07ULL, 0},
    {2, DEFAULTS, 14, 0x3757e5ec35857353ULL, 0},
    {2, DEFAULTS, 15, 0xdb7c72efa48d30b6ULL, 0},
    {2, DEFAULTS, 16, 0x316141a8c43f3508ULL, 0},
    {2, DEFAULTS, 17, 0xfdb01e88c9454b07ULL, 0},
    {2, DEFAULTS, 18, 0xba17725cf8e39f0eULL, 0},
    {2, DEFAULTS, 19, 0x04fe48ef3ca7d874ULL, 0},
    {2, DEFAULTS, 20, 0xf0e1efaca437acc7ULL, 0},
    {2, DEFAULTS, 21, 0x406c6e5a5522ce10ULL, 0},
    {2, DEFAULTS, 22, 0xdc5050d4f8afc92bULL, 1},
    {2, DEFAULTS, 23, 0x86dd8bbe6197bb19ULL, 0},
    {2, DEFAULTS, 24, 0xec109f15cbef6c8dULL, 0},
    {2, DEFAULTS, 25, 0xc2b6a455470142ceULL, 1},
    {2, DEFAULTS, 26, 0xe8d8acdea724ce26ULL, 1},
    {2, DEFAULTS, 27, 0x9e8e2f69accc426fULL, 0},
    {2, DEFAULTS, 28, 0x9b4c688cebdac1e7ULL, 2},
    {2, DEFAULTS, 29, 0x59cb3e2344da9a3aULL, 2},
    {2, DEFAULTS, 30, 0xc67d3488c3fcb6b1ULL, 0},
    {2, DEFAULTS, 31, 0x71421c69e3c8ae0fULL, 0},
    {2, DEFAULTS, 32, 0x03681b180c1b924fULL, 1},
    {2, DEFAULTS, 33, 0x447f59bf4d5e3f3cULL, 0},
    {2, DEFAULTS, 34, 0xbb6bc650b25e30e3ULL, 0},
    {2, DEFAULTS, 35, 0x89e9312873772cfcULL, 0},
    {2, DEFAULTS, 36, 0x25b3e0aec8f200d9ULL, 0},
    {2, DEFAULTS, 37, 0xdfd80ea52bb61245ULL, 0},
    {2, DEFAULTS, 38, 0x9e840cd94714bb13ULL, 0},
    {2, DEFAULTS, 39, 0xa87ba7539ea401d2ULL, 4},
    {2, DEFAULTS, 40, 0x717ccea8cee34d70ULL, 2},
    {2, DEFAULTS, 41, 0x6b8a84cf6e006485ULL, 0},
    {2, DEFAULTS, 42, 0x49b7baa0523301b6ULL, 1},
    {2, DEFAULTS, 43, 0x4b5eb2c4c629c761ULL, 0},
    {2, DEFAULTS, 44, 0x92e1ef8541553ac5ULL, 0},
    {2, DEFAULTS, 45, 0x8b46a290337cebc0ULL, 0},
    {2, DEFAULTS, 46, 0x062c0bf5c90270afULL, 0},
    {2, DEFAULTS, 47, 0x13069b02e60a2fe8ULL, 0},
    {2, DEFAULTS, 48, 0x3b6cce60d4963af8ULL, 0},
    {2, DEFAULTS, 49, 0xfbe10f9346db06afULL, 0},
    {2, DEFAULTS, 50, 0x74d8f50a76b983fbULL, 0},
    {2, DEFAULTS, 51, 0xd8f8d5ca3d922ef4ULL, 0},
    {2, DEFAULTS, 52, 0x5ccee76e250faf2cULL, 2},
    {2, DEFAULTS, 53, 0x613110532dc32247ULL, 0},
    {2, DEFAULTS, 54, 0x4793666fe23bc2f3ULL, 1},
    {2, DEFAULTS, 55, 0xa2f576f95526d8ffULL, 0},
    {2, DEFAULTS, 56, 0x8a4820126cc7cf55ULL, 0},
    {2, DEFAULTS, 57, 0xf02fdcf37a62c3a6ULL, 1},
    {2, DEFAULTS, 58, 0x406923a8103ddc8aULL, 0},
    {2, DEFAULTS, 59, 0x6bd41b59649df2e6ULL, 0},
    {2, DEFAULTS, 60, 0x84816efc901d74bfULL, 0},
    // 2x2, crash
    {2, CRASH_ONLY, 1, 0x81fc7c291f782e40ULL, 0},
    {2, CRASH_ONLY, 2, 0x1593bd78a4cb0a86ULL, 0},
    {2, CRASH_ONLY, 3, 0x9cbfb46f49a45600ULL, 0},
    {2, CRASH_ONLY, 4, 0xcaacaa5826c6130aULL, 0},
    {2, CRASH_ONLY, 5, 0xb620ca8d9cc1f53dULL, 0},
    {2, CRASH_ONLY, 6, 0xa741de098883667bULL, 0},
    {2, CRASH_ONLY, 7, 0x27e6225bbb5397bcULL, 0},
    {2, CRASH_ONLY, 8, 0xabb034ea031278b0ULL, 0},
    {2, CRASH_ONLY, 9, 0xb56e99e7bfbd6b78ULL, 0},
    {2, CRASH_ONLY, 10, 0xdde07f94490eddb3ULL, 0},
    {2, CRASH_ONLY, 11, 0x12cb27b26d26b637ULL, 0},
    {2, CRASH_ONLY, 12, 0x4eaba4cff0cb5e7dULL, 0},
    {2, CRASH_ONLY, 13, 0x2224d88ce7dcc387ULL, 0},
    {2, CRASH_ONLY, 14, 0x3faa971bb3fd547cULL, 0},
    {2, CRASH_ONLY, 15, 0xc568fbcfbcec5324ULL, 2},
    {2, CRASH_ONLY, 16, 0x2362eec08a5ddb83ULL, 0},
    {2, CRASH_ONLY, 17, 0x00e8166bb8957ac5ULL, 0},
    {2, CRASH_ONLY, 18, 0xb4855d1d245f2be7ULL, 0},
    {2, CRASH_ONLY, 19, 0x7f6f24bb884aef65ULL, 0},
    {2, CRASH_ONLY, 20, 0xdf67c022de59e416ULL, 0},
    {2, CRASH_ONLY, 21, 0x2ed6a6d4f51fdbf0ULL, 0},
    {2, CRASH_ONLY, 22, 0x14323d1412de0389ULL, 1},
    {2, CRASH_ONLY, 23, 0x68aa3832041f09f6ULL, 0},
    {2, CRASH_ONLY, 24, 0x008793f2b4716604ULL, 0},
    {2, CRASH_ONLY, 25, 0xfa42e2db87e1a0e4ULL, 1},
    {2, CRASH_ONLY, 26, 0x7b7dc01b45b624e0ULL, 1},
    {2, CRASH_ONLY, 27, 0x8ec5c2563452b51aULL, 0},
    {2, CRASH_ONLY, 28, 0x7a803d4bb5fabbd1ULL, 0},
    {2, CRASH_ONLY, 29, 0x2bf36d45edf07509ULL, 0},
    {2, CRASH_ONLY, 30, 0xaab3330ca8a6a2d0ULL, 0},
    {2, CRASH_ONLY, 31, 0x852f3de0fe32e8a0ULL, 0},
    {2, CRASH_ONLY, 32, 0x443d7554c2a60368ULL, 1},
    {2, CRASH_ONLY, 33, 0xacf087556a2288b0ULL, 0},
    {2, CRASH_ONLY, 34, 0xcefa1a6923ca1bb3ULL, 0},
    {2, CRASH_ONLY, 35, 0x034a64fd8ae60fa5ULL, 0},
    {2, CRASH_ONLY, 36, 0x5a3b80893b0c4d20ULL, 0},
    {2, CRASH_ONLY, 37, 0x445d53edd36990bcULL, 0},
    {2, CRASH_ONLY, 38, 0xa40ddb09f4c371c3ULL, 0},
    {2, CRASH_ONLY, 39, 0x77cb233d6f1323eeULL, 2},
    {2, CRASH_ONLY, 40, 0xce6ef975c6c97864ULL, 2},
    {2, CRASH_ONLY, 41, 0x3d8f6f487b22e3e2ULL, 0},
    {2, CRASH_ONLY, 42, 0xfcb28629f5115830ULL, 0},
    {2, CRASH_ONLY, 43, 0x885e3ce951dc9cd1ULL, 0},
    {2, CRASH_ONLY, 44, 0x52748cf4b6d98887ULL, 0},
    {2, CRASH_ONLY, 45, 0x686e62154d430f9aULL, 0},
    {2, CRASH_ONLY, 46, 0x133c8b1fad89c793ULL, 0},
    {2, CRASH_ONLY, 47, 0xdce97912f85108d1ULL, 0},
    {2, CRASH_ONLY, 48, 0xb0bff7fb8099493bULL, 0},
    {2, CRASH_ONLY, 49, 0x00a0212a4503dff1ULL, 0},
    {2, CRASH_ONLY, 50, 0x5fe19d030b648867ULL, 0},
    {2, CRASH_ONLY, 51, 0x5b742e84b8e61f39ULL, 0},
    {2, CRASH_ONLY, 52, 0xb9c591265caf50b2ULL, 2},
    {2, CRASH_ONLY, 53, 0xf8fc7a93f201cacdULL, 0},
    {2, CRASH_ONLY, 54, 0x13e4de05c390017eULL, 1},
    {2, CRASH_ONLY, 55, 0x7781598725e813c8ULL, 0},
    {2, CRASH_ONLY, 56, 0x7e28abb1cd150af5ULL, 0},
    {2, CRASH_ONLY, 57, 0x0b42a7ba378590e3ULL, 8},
    {2, CRASH_ONLY, 58, 0x15b59efb33aad426ULL, 0},
    {2, CRASH_ONLY, 59, 0x133d589d448cea30ULL, 0},
    {2, CRASH_ONLY, 60, 0xb3fd237fd4a99c9cULL, 0},
    // 2x2, flap
    {2, FLAP_ONLY, 1, 0xb1b09aab2c079656ULL, 0},
    {2, FLAP_ONLY, 2, 0x63f55ad535023786ULL, 0},
    {2, FLAP_ONLY, 3, 0xa9e2b9e852056090ULL, 0},
    {2, FLAP_ONLY, 4, 0xfd0c88c05a191d88ULL, 0},
    {2, FLAP_ONLY, 5, 0xce806a0c1a631dafULL, 0},
    {2, FLAP_ONLY, 6, 0xcf425e6b3a4458baULL, 0},
    {2, FLAP_ONLY, 7, 0xa102f97ae8c04e19ULL, 0},
    {2, FLAP_ONLY, 8, 0xe852c6fc06794586ULL, 0},
    {2, FLAP_ONLY, 9, 0xbc01d0ccc7c4b46dULL, 0},
    {2, FLAP_ONLY, 10, 0xc41c8baf43f245a9ULL, 0},
    {2, FLAP_ONLY, 11, 0x5e6a49f73adaf196ULL, 0},
    {2, FLAP_ONLY, 12, 0x704e938d6749038dULL, 0},
    {2, FLAP_ONLY, 13, 0xfed90fb762777ce8ULL, 0},
    {2, FLAP_ONLY, 14, 0x19c8eec26bd4afbaULL, 0},
    {2, FLAP_ONLY, 15, 0x9ea6d545dbf04d31ULL, 0},
    {2, FLAP_ONLY, 16, 0x817a494ccfa824e0ULL, 0},
    {2, FLAP_ONLY, 17, 0x94ed5eb112898a54ULL, 0},
    {2, FLAP_ONLY, 18, 0x1eb50419bd2237d3ULL, 0},
    {2, FLAP_ONLY, 19, 0x98352bee32763ecfULL, 0},
    {2, FLAP_ONLY, 20, 0x8c3b72329bfb28fcULL, 0},
    {2, FLAP_ONLY, 21, 0x19664463b9baa324ULL, 0},
    {2, FLAP_ONLY, 22, 0xca06928829f29ee1ULL, 0},
    {2, FLAP_ONLY, 23, 0x125e1cda60b77e7cULL, 0},
    {2, FLAP_ONLY, 24, 0x1bdaecc10c0f88d0ULL, 0},
    {2, FLAP_ONLY, 25, 0xfea19d336dc8bdceULL, 0},
    {2, FLAP_ONLY, 26, 0x623d2bc960d90426ULL, 0},
    {2, FLAP_ONLY, 27, 0xb7beb7e7e0133fcbULL, 0},
    {2, FLAP_ONLY, 28, 0x858e7c1c16cf6033ULL, 0},
    {2, FLAP_ONLY, 29, 0x42ce05c4cbae7860ULL, 0},
    {2, FLAP_ONLY, 30, 0x1f4cc2051d404115ULL, 0},
    {2, FLAP_ONLY, 31, 0x81a9a78bdf5c4804ULL, 0},
    {2, FLAP_ONLY, 32, 0x338292334178b7dfULL, 0},
    {2, FLAP_ONLY, 33, 0x07aaf4d52f5009d8ULL, 0},
    {2, FLAP_ONLY, 34, 0xc465f7bbcbc77f1eULL, 0},
    {2, FLAP_ONLY, 35, 0xbe2b303f89261f71ULL, 0},
    {2, FLAP_ONLY, 36, 0xb382cd0c7f6adaf8ULL, 0},
    {2, FLAP_ONLY, 37, 0x1f09195e4dacffcdULL, 0},
    {2, FLAP_ONLY, 38, 0x249945e9bc7e6117ULL, 0},
    {2, FLAP_ONLY, 39, 0x5e4ee5cb2be9c7deULL, 0},
    {2, FLAP_ONLY, 40, 0xcaa5dc37d579f60fULL, 0},
    {2, FLAP_ONLY, 41, 0xf301274a45af6796ULL, 0},
    {2, FLAP_ONLY, 42, 0x602869452fc88d29ULL, 0},
    {2, FLAP_ONLY, 43, 0xa399c5fbf670c436ULL, 0},
    {2, FLAP_ONLY, 44, 0xb5937c9f24c986c8ULL, 0},
    {2, FLAP_ONLY, 45, 0x3def37e60d7f16afULL, 0},
    {2, FLAP_ONLY, 46, 0x2fb4c42a130e2f1cULL, 0},
    {2, FLAP_ONLY, 47, 0x80b32a622bc20a45ULL, 0},
    {2, FLAP_ONLY, 48, 0xc1799cdc50683c0bULL, 0},
    {2, FLAP_ONLY, 49, 0xbe34614cd1bfa63dULL, 0},
    {2, FLAP_ONLY, 50, 0x3adc9503f88154afULL, 0},
    {2, FLAP_ONLY, 51, 0xfc8445f5e924bc45ULL, 0},
    {2, FLAP_ONLY, 52, 0xb5027c1d0edb2fb3ULL, 0},
    {2, FLAP_ONLY, 53, 0x1565ba30033c0416ULL, 0},
    {2, FLAP_ONLY, 54, 0x3830ae86ddbe3082ULL, 0},
    {2, FLAP_ONLY, 55, 0x349748cc4de5f0a8ULL, 0},
    {2, FLAP_ONLY, 56, 0xe3487b6a664d9321ULL, 0},
    {2, FLAP_ONLY, 57, 0x685e0c63cd9ae20bULL, 0},
    {2, FLAP_ONLY, 58, 0x84bbdc9db819ce51ULL, 0},
    {2, FLAP_ONLY, 59, 0x6f804fb84c344839ULL, 0},
    {2, FLAP_ONLY, 60, 0x95b55716c8f269a0ULL, 0},
    // 2x2, part
    {2, PARTITIONS, 1, 0x6d63179024e74ee3ULL, 0},
    {2, PARTITIONS, 2, 0x2f5a2f3b629bbabeULL, 0},
    {2, PARTITIONS, 3, 0xf21c4b33a7376dd3ULL, 0},
    {2, PARTITIONS, 4, 0x5f6c35fda57a496fULL, 0},
    {2, PARTITIONS, 5, 0xb03565cdb3f2a73fULL, 0},
    {2, PARTITIONS, 6, 0xe36c6f718bd741f7ULL, 0},
    {2, PARTITIONS, 7, 0xf3b6aa5ecce53bf3ULL, 0},
    {2, PARTITIONS, 8, 0x1de353e9434b4a6eULL, 0},
    {2, PARTITIONS, 9, 0x34f2dbe6636691ccULL, 0},
    {2, PARTITIONS, 10, 0xfd7c8e774587e546ULL, 0},
    {2, PARTITIONS, 11, 0xe09dc33bf9527585ULL, 0},
    {2, PARTITIONS, 12, 0x55bed20a215b85f1ULL, 0},
    {2, PARTITIONS, 13, 0xdaa36dab71564ad1ULL, 0},
    {2, PARTITIONS, 14, 0x4c08a786e01e62c4ULL, 0},
    {2, PARTITIONS, 15, 0x56206c50496fdfa4ULL, 0},
    {2, PARTITIONS, 16, 0xd3aa1db87994f122ULL, 0},
    {2, PARTITIONS, 17, 0x94941bd914727e44ULL, 0},
    {2, PARTITIONS, 18, 0xd79e05f716c881fdULL, 0},
    {2, PARTITIONS, 19, 0x5ef988b769116bdfULL, 0},
    {2, PARTITIONS, 20, 0x021f3b43299aaaefULL, 0},
    {2, PARTITIONS, 21, 0xe869ce42824e5dc3ULL, 0},
    {2, PARTITIONS, 22, 0x6b18354140c83b7dULL, 0},
    {2, PARTITIONS, 23, 0xc7b00b53916ee12cULL, 0},
    {2, PARTITIONS, 24, 0x73c0486e880abc37ULL, 0},
    {2, PARTITIONS, 25, 0x19b28fdc38f5cacdULL, 0},
    {2, PARTITIONS, 26, 0xf7c6bfeb96661969ULL, 0},
    {2, PARTITIONS, 27, 0xa9a16c52c85f271bULL, 0},
    {2, PARTITIONS, 28, 0x77079ebb137194b8ULL, 0},
    {2, PARTITIONS, 29, 0x701036297e2dcb31ULL, 0},
    {2, PARTITIONS, 30, 0x16746d8b9c136735ULL, 0},
    {2, PARTITIONS, 31, 0xcb6edc9c9dae30a8ULL, 0},
    {2, PARTITIONS, 32, 0x625dd95733bcd0d8ULL, 0},
    {2, PARTITIONS, 33, 0x907ac65d7148bbcfULL, 0},
    {2, PARTITIONS, 34, 0x4a1bbc1d18e503b7ULL, 0},
    {2, PARTITIONS, 35, 0x7deb31d41e790ee5ULL, 0},
    {2, PARTITIONS, 36, 0xd896e63cc6f51dabULL, 0},
    {2, PARTITIONS, 37, 0x323e42470beb6e2bULL, 0},
    {2, PARTITIONS, 38, 0x82381483be221f24ULL, 0},
    {2, PARTITIONS, 39, 0xcbcda507897c0517ULL, 0},
    {2, PARTITIONS, 40, 0x36ca7c8ddd361503ULL, 0},
    {2, PARTITIONS, 41, 0x2738f2ca63a1507cULL, 0},
    {2, PARTITIONS, 42, 0x1d3fa4406a2bdeb2ULL, 0},
    {2, PARTITIONS, 43, 0x2fe929d4df474d00ULL, 0},
    {2, PARTITIONS, 44, 0xc0238370aa50d4edULL, 0},
    {2, PARTITIONS, 45, 0x32b0b7f3f6bba7aaULL, 0},
    {2, PARTITIONS, 46, 0x72f5b7de5ba46adcULL, 0},
    {2, PARTITIONS, 47, 0xc7144fe2a904c105ULL, 0},
    {2, PARTITIONS, 48, 0x9a975ed87abc0261ULL, 0},
    {2, PARTITIONS, 49, 0x5861fca6f09d4b85ULL, 0},
    {2, PARTITIONS, 50, 0x04aef323f9279cfdULL, 0},
    {2, PARTITIONS, 51, 0x30c51b673d78c3b8ULL, 0},
    {2, PARTITIONS, 52, 0x185dd17e50b5897dULL, 0},
    {2, PARTITIONS, 53, 0x68b829c79eeb3314ULL, 0},
    {2, PARTITIONS, 54, 0x99fc77dca04b95bbULL, 0},
    {2, PARTITIONS, 55, 0xc011b365054a9337ULL, 0},
    {2, PARTITIONS, 56, 0xb01dd3e7d84d7a24ULL, 0},
    {2, PARTITIONS, 57, 0x1d9334647976db15ULL, 0},
    {2, PARTITIONS, 58, 0x38d2657d8102c8a7ULL, 0},
    {2, PARTITIONS, 59, 0x0733968287dbfd3fULL, 0},
    {2, PARTITIONS, 60, 0x128f3aba4578a973ULL, 0},
    // 3x3, defaults
    {3, DEFAULTS, 1, 0x3a17bd782a1a932cULL, 2},
    {3, DEFAULTS, 2, 0x062979e4357cf631ULL, 0},
    {3, DEFAULTS, 3, 0x43b950026d67214fULL, 0},
    {3, DEFAULTS, 4, 0x216a3c52c3882646ULL, 398},
    {3, DEFAULTS, 5, 0x526b10fe8a8a8145ULL, 0},
    {3, DEFAULTS, 6, 0x0a6994cc2158f424ULL, 0},
    {3, DEFAULTS, 7, 0xcd94bcaec13e4fb0ULL, 0},
    {3, DEFAULTS, 8, 0xdc3d40d1fdd58d66ULL, 0},
    {3, DEFAULTS, 9, 0x50176e73bf1d8fb1ULL, 0},
    {3, DEFAULTS, 10, 0x0b81f6ef224e042eULL, 297},
    {3, DEFAULTS, 11, 0x0d3b8a837da37db1ULL, 0},
    {3, DEFAULTS, 12, 0xf1aaec0969f53ccfULL, 6},
    // 3x3, crash
    {3, CRASH_ONLY, 1, 0xe71b1ab3fe71c423ULL, 1},
    {3, CRASH_ONLY, 2, 0xca2d299956e5f5a6ULL, 0},
    {3, CRASH_ONLY, 3, 0x7841b0e4fd1b3b51ULL, 0},
    {3, CRASH_ONLY, 4, 0xeab4ddb3b0124559ULL, 0},
    {3, CRASH_ONLY, 5, 0x5df506b965abb893ULL, 0},
    {3, CRASH_ONLY, 6, 0x62e95f4113f78b6fULL, 0},
    {3, CRASH_ONLY, 7, 0x112940a64bcf3be3ULL, 0},
    {3, CRASH_ONLY, 8, 0xf60c771c11a9de0fULL, 1},
    {3, CRASH_ONLY, 9, 0x3bd1e28e4b7005c3ULL, 0},
    {3, CRASH_ONLY, 10, 0x50736a1172fbee9cULL, 5},
    {3, CRASH_ONLY, 11, 0x99e7796957c18694ULL, 0},
    {3, CRASH_ONLY, 12, 0xf2d3aca02cb352a7ULL, 7},
    // 3x3, flap
    {3, FLAP_ONLY, 1, 0xe7954c6f9448f166ULL, 0},
    {3, FLAP_ONLY, 2, 0x502dfa0d4c476bdfULL, 0},
    {3, FLAP_ONLY, 3, 0x8c6c30dd97013accULL, 0},
    {3, FLAP_ONLY, 4, 0xd3ea3267f7f57572ULL, 0},
    {3, FLAP_ONLY, 5, 0x62e68be99c348186ULL, 0},
    {3, FLAP_ONLY, 6, 0xb5a1dd9e3d88288eULL, 0},
    {3, FLAP_ONLY, 7, 0x40a6babe7eb6dacbULL, 0},
    {3, FLAP_ONLY, 8, 0xbc182e51dfa920e5ULL, 0},
    {3, FLAP_ONLY, 9, 0x51daecb5ad124b6eULL, 0},
    {3, FLAP_ONLY, 10, 0x81d05ad7df081c2dULL, 0},
    {3, FLAP_ONLY, 11, 0xf5dbed918bb9d3d9ULL, 0},
    {3, FLAP_ONLY, 12, 0xc09dbf3a89b1240aULL, 0},
    // 3x3, part
    {3, PARTITIONS, 1, 0xaf81fac5a9ba87feULL, 27},
    {3, PARTITIONS, 2, 0xe0240ccc726de556ULL, 0},
    {3, PARTITIONS, 3, 0xa0d1ffe6072d3057ULL, 0},
    {3, PARTITIONS, 4, 0xeb9525d9d8fd502cULL, 27},
    {3, PARTITIONS, 5, 0x7ae1589e11d2df57ULL, 0},
    {3, PARTITIONS, 6, 0x6b7ae9a54d555706ULL, 0},
    {3, PARTITIONS, 7, 0x01c0903066cdaa72ULL, 0},
    {3, PARTITIONS, 8, 0x2f53779dea8e8ad2ULL, 0},
    {3, PARTITIONS, 9, 0x9e422d74a66a09a8ULL, 0},
    {3, PARTITIONS, 10, 0x6f77549a830ecd18ULL, 0},
    {3, PARTITIONS, 11, 0x2c0ef6f0c59ae038ULL, 27},
    {3, PARTITIONS, 12, 0x9acc3e67421a4c2fULL, 0},
    // 4x4, defaults
    {4, DEFAULTS, 1, 0x5908f1f2507c4ad7ULL, 8},
    {4, DEFAULTS, 2, 0x40b248ad28405e02ULL, 1713},
    {4, DEFAULTS, 3, 0xf2218bf2571a1cd3ULL, 1282},
    {4, DEFAULTS, 4, 0x2d39e46f1318c7fdULL, 14},
    {4, DEFAULTS, 5, 0xe7e4e576c47f7887ULL, 1965},
    {4, DEFAULTS, 6, 0xee1080c908cdfc0aULL, 742},
    {4, DEFAULTS, 7, 0xb2e7f02534242522ULL, 4},
    {4, DEFAULTS, 8, 0xbfc96c09a9de00c7ULL, 1717},
    // 4x4, crash
    {4, CRASH_ONLY, 1, 0x3136cafb8e76788aULL, 11},
    {4, CRASH_ONLY, 2, 0x484ca4133e408db5ULL, 3},
    {4, CRASH_ONLY, 3, 0x24dfc3ec46e7c7f8ULL, 8},
    {4, CRASH_ONLY, 4, 0x5ae2c2cc8d4ed42cULL, 14},
    {4, CRASH_ONLY, 5, 0x1019114a631fd7eeULL, 1},
    {4, CRASH_ONLY, 6, 0xcd1da075efea8c0fULL, 8},
    {4, CRASH_ONLY, 7, 0xd47faec30deddbbeULL, 2},
    {4, CRASH_ONLY, 8, 0x62943cec792048acULL, 4},
    // 4x4, flap
    {4, FLAP_ONLY, 1, 0x24032272bf925469ULL, 0},
    {4, FLAP_ONLY, 2, 0x4ea681bd75067a2fULL, 2328},
    {4, FLAP_ONLY, 3, 0x995d98eb0fe3cd3dULL, 0},
    {4, FLAP_ONLY, 4, 0x2f2fb0965408c0ceULL, 0},
    {4, FLAP_ONLY, 5, 0x9dd66375ddda809aULL, 1882},
    {4, FLAP_ONLY, 6, 0xc9c967eb3b85d160ULL, 2031},
    {4, FLAP_ONLY, 7, 0x06208365d8ccd7ebULL, 0},
    {4, FLAP_ONLY, 8, 0x4981f1bbea626882ULL, 1523},
    // 1x8, defaults
    {1, DEFAULTS, 1, 0x14b1d58fb3669e51ULL, 19, 8},
    {1, DEFAULTS, 2, 0x9168791d631a7c6eULL, 6, 8},
    {1, DEFAULTS, 3, 0x2303a7325e967296ULL, 0, 8},
    {1, DEFAULTS, 4, 0xb190f2f6546c74c8ULL, 78, 8},
    {1, DEFAULTS, 5, 0x11747a0b9e930478ULL, 0, 8},
    {1, DEFAULTS, 6, 0x9d00f175d587d829ULL, 0, 8},
    {1, DEFAULTS, 7, 0xdda92e108921a969ULL, 0, 8},
    {1, DEFAULTS, 8, 0x015d6112520e9ad5ULL, 4, 8},
    {1, DEFAULTS, 9, 0x0ff772d1d487331cULL, 0, 8},
    {1, DEFAULTS, 10, 0x3744225b02cc7d11ULL, 4, 8},
    // 8x1, defaults
    {8, DEFAULTS, 1, 0x89981110b0264454ULL, 19, 1},
    {8, DEFAULTS, 2, 0x3636008c950e2d66ULL, 6, 1},
    {8, DEFAULTS, 3, 0xfe7808edc776749fULL, 0, 1},
    {8, DEFAULTS, 4, 0x93b637272f68b457ULL, 75, 1},
    {8, DEFAULTS, 5, 0xace0535ee8f58d30ULL, 0, 1},
    {8, DEFAULTS, 6, 0x115ef9e99d0650d5ULL, 0, 1},
    {8, DEFAULTS, 7, 0xab78c029eb3a0e72ULL, 0, 1},
    {8, DEFAULTS, 8, 0xa34dfe67e4057a5cULL, 4, 1},
    {8, DEFAULTS, 9, 0x6e1c3200a2af82daULL, 0, 1},
    {8, DEFAULTS, 10, 0x13a34e48694ba5a9ULL, 4, 1},
    // 2x4, defaults
    {2, DEFAULTS, 1, 0x5d14e488b99560c8ULL, 3, 4},
    {2, DEFAULTS, 2, 0x6bdd7e1e34ad77e8ULL, 366, 4},
    {2, DEFAULTS, 3, 0xf3253f99826e8969ULL, 0, 4},
    {2, DEFAULTS, 4, 0x83f99291ffe1877aULL, 236, 4},
    {2, DEFAULTS, 5, 0x20e00d638572acefULL, 0, 4},
    {2, DEFAULTS, 6, 0xab243112181b04d2ULL, 0, 4},
    {2, DEFAULTS, 7, 0x5fc37d47a37bfb65ULL, 0, 4},
    {2, DEFAULTS, 8, 0x2f0a53bcddec46c9ULL, 4, 4},
    {2, DEFAULTS, 9, 0x20a8ab5d7b7880ebULL, 0, 4},
    {2, DEFAULTS, 10, 0x39a648723f9d6633ULL, 4, 4},
    // 3x5, defaults
    {3, DEFAULTS, 1, 0x568555afa77fae50ULL, 2, 5},
    {3, DEFAULTS, 2, 0x9d06c84b6682701aULL, 2, 5},
    {3, DEFAULTS, 3, 0x9af0ad31bf351e6cULL, 1, 5},
    {3, DEFAULTS, 4, 0x264a86faa2d90414ULL, 46, 5},
    {3, DEFAULTS, 5, 0xb79369705fa9b211ULL, 1844, 5},
    {3, DEFAULTS, 6, 0x1579a4e8ae633c19ULL, 680, 5},
    {3, DEFAULTS, 7, 0x5c4a3c47273a962dULL, 3, 5},
    {3, DEFAULTS, 8, 0xd6e8b245bcb8f3c7ULL, 1754, 5},
    {3, DEFAULTS, 9, 0x9841f1efea26cffcULL, 1854, 5},
    {3, DEFAULTS, 10, 0xca6eedf1a2770e93ULL, 1357, 5},
};

class ChaosSweep : public ::testing::TestWithParam<SweepRow>
{};

TEST_P(ChaosSweep, Pinned)
{
    const SweepRow &row = GetParam();
    ChaosParams p;
    p.seed = row.seed;
    p.meshWidth = row.width;
    p.meshHeight = row.rows();
    switch (row.mode) {
      case DEFAULTS:
        break;
      case CRASH_ONLY:
        p.linkFlaps = 0;
        p.overloadBursts = 0;
        break;
      case FLAP_ONLY:
        p.crashes = 0;
        p.overloadBursts = 0;
        break;
      case PARTITIONS:
        p.partitions = 2;
        break;
    }
    ChaosReport r = runChaos(p);
    EXPECT_EQ(r.statsFingerprint, row.fingerprint)
        << "observed {" << row.width << ", " << modeName(row.mode) << ", "
        << row.seed << ", 0x" << std::hex << r.statsFingerprint
        << std::dec << "ULL, " << r.violations.size()
        << (row.height ? ", " + std::to_string(row.height) : "") << "}";
    EXPECT_EQ(r.violations.size(), row.violations)
        << (r.violations.empty() ? std::string("none")
                                 : "first: " + r.violations.front());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChaosSweep, ::testing::ValuesIn(kSweep),
    [](const ::testing::TestParamInfo<SweepRow> &row_info) {
        const SweepRow &row = row_info.param;
        return "m" + std::to_string(row.width) + "x" +
               std::to_string(row.rows()) + "_" + modeName(row.mode) +
               "_seed" + std::to_string(row.seed);
    });

static_assert(std::size(kSweep) == 352);

} // namespace
} // namespace shrimp
