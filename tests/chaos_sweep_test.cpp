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
    {2, DEFAULTS, 1, 0x0105b8aafe9596dbULL, 0},
    {2, DEFAULTS, 2, 0xa8c53119dfd6a34dULL, 0},
    {2, DEFAULTS, 3, 0x05c600670ecadec0ULL, 0},
    {2, DEFAULTS, 4, 0xe52c3235d2f03603ULL, 0},
    {2, DEFAULTS, 5, 0xebbe83b225f22b88ULL, 0},
    {2, DEFAULTS, 6, 0x5c17e2d658b7676fULL, 0},
    {2, DEFAULTS, 7, 0x1ab3902ed8865d61ULL, 0},
    {2, DEFAULTS, 8, 0x2295fd9ca7c800beULL, 0},
    {2, DEFAULTS, 9, 0x77b87706f3b4690cULL, 0},
    {2, DEFAULTS, 10, 0x3602ede6d22d3c15ULL, 0},
    {2, DEFAULTS, 11, 0xe16aa613089a9190ULL, 0},
    {2, DEFAULTS, 12, 0x26305a6408a102a3ULL, 0},
    {2, DEFAULTS, 13, 0xf350a5465df57bf7ULL, 0},
    {2, DEFAULTS, 14, 0x2e5180e6f5195baaULL, 0},
    {2, DEFAULTS, 15, 0xacdfc7efaa80faa0ULL, 0},
    {2, DEFAULTS, 16, 0x17693929f2d65670ULL, 0},
    {2, DEFAULTS, 17, 0x32ca85867abd752bULL, 0},
    {2, DEFAULTS, 18, 0x988a61c778bb0cf4ULL, 0},
    {2, DEFAULTS, 19, 0x4d9d527b85c308d4ULL, 0},
    {2, DEFAULTS, 20, 0xaebac0d90f194253ULL, 0},
    {2, DEFAULTS, 21, 0xfa208303e8553d14ULL, 0},
    {2, DEFAULTS, 22, 0x77e4090244f5794aULL, 1},
    {2, DEFAULTS, 23, 0x818e7187d007a35cULL, 0},
    {2, DEFAULTS, 24, 0xf69ea9e016c7188cULL, 0},
    {2, DEFAULTS, 25, 0x81ecd80bd4dc8b89ULL, 1},
    {2, DEFAULTS, 26, 0xa43457c5859224b9ULL, 1},
    {2, DEFAULTS, 27, 0x09651aa8c1e66358ULL, 0},
    {2, DEFAULTS, 28, 0xfa8dadeccc6f7010ULL, 2},
    {2, DEFAULTS, 29, 0x07cb785709e178b8ULL, 2},
    {2, DEFAULTS, 30, 0xe670abbaf29dccc3ULL, 0},
    {2, DEFAULTS, 31, 0xd9a6af2fd3a486bfULL, 0},
    {2, DEFAULTS, 32, 0xb3cdc408b1085df8ULL, 1},
    {2, DEFAULTS, 33, 0x820a8848e54c6de0ULL, 0},
    {2, DEFAULTS, 34, 0x76d3dee24928640bULL, 0},
    {2, DEFAULTS, 35, 0x966adb901642a455ULL, 0},
    {2, DEFAULTS, 36, 0x5d9b958c8ffb9922ULL, 0},
    {2, DEFAULTS, 37, 0x04392ed57293eb87ULL, 0},
    {2, DEFAULTS, 38, 0x914586b0307ed81aULL, 0},
    {2, DEFAULTS, 39, 0x5674cc60392f136eULL, 4},
    {2, DEFAULTS, 40, 0xb3f6c43733ae3e48ULL, 2},
    {2, DEFAULTS, 41, 0xec01d6c2c765f196ULL, 0},
    {2, DEFAULTS, 42, 0x34bf7637636908b9ULL, 1},
    {2, DEFAULTS, 43, 0x7509c9e2976de4eaULL, 0},
    {2, DEFAULTS, 44, 0xfb778dde2ed5b49bULL, 0},
    {2, DEFAULTS, 45, 0x1a91bbf6edc8e676ULL, 0},
    {2, DEFAULTS, 46, 0x2205e31cc0a904c3ULL, 0},
    {2, DEFAULTS, 47, 0xca7801315d16d4a7ULL, 0},
    {2, DEFAULTS, 48, 0x0e3cd589c6b406f5ULL, 0},
    {2, DEFAULTS, 49, 0x1d4a1c7980a8d45dULL, 0},
    {2, DEFAULTS, 50, 0x71766f6852b62b94ULL, 0},
    {2, DEFAULTS, 51, 0xe49628b208bcd111ULL, 0},
    {2, DEFAULTS, 52, 0x2ffb21efbcc18c32ULL, 2},
    {2, DEFAULTS, 53, 0xa2fb1ea11bdad553ULL, 0},
    {2, DEFAULTS, 54, 0xe366bb7c36e25defULL, 1},
    {2, DEFAULTS, 55, 0x12237702934cbe54ULL, 0},
    {2, DEFAULTS, 56, 0x192ebca6014da5caULL, 0},
    {2, DEFAULTS, 57, 0xfe502fabc48b1b62ULL, 1},
    {2, DEFAULTS, 58, 0x70eec75d809b59d3ULL, 0},
    {2, DEFAULTS, 59, 0xa18c98860a30a2a1ULL, 0},
    {2, DEFAULTS, 60, 0xdc784fa849430b6aULL, 0},
    // 2x2, crash
    {2, CRASH_ONLY, 1, 0x2292bf20ee268da5ULL, 0},
    {2, CRASH_ONLY, 2, 0x7643c9af2f442686ULL, 0},
    {2, CRASH_ONLY, 3, 0x0a078386ab47e89aULL, 0},
    {2, CRASH_ONLY, 4, 0x8ba408085c6a95fcULL, 0},
    {2, CRASH_ONLY, 5, 0x224c514b0adf5417ULL, 0},
    {2, CRASH_ONLY, 6, 0x75f3117169ee24aaULL, 0},
    {2, CRASH_ONLY, 7, 0x06e0634b44a35e32ULL, 0},
    {2, CRASH_ONLY, 8, 0x5f258b4e17891ebfULL, 0},
    {2, CRASH_ONLY, 9, 0xbf07d0543a239439ULL, 0},
    {2, CRASH_ONLY, 10, 0x5cccccc084745acbULL, 0},
    {2, CRASH_ONLY, 11, 0xd5ed1f7252d7a3bcULL, 0},
    {2, CRASH_ONLY, 12, 0x25725e39320a47ddULL, 0},
    {2, CRASH_ONLY, 13, 0xd0d1281b20327db1ULL, 0},
    {2, CRASH_ONLY, 14, 0x4dc83c5637753b67ULL, 0},
    {2, CRASH_ONLY, 15, 0x1b4a66f377958b38ULL, 2},
    {2, CRASH_ONLY, 16, 0x0e03e3fee994a118ULL, 0},
    {2, CRASH_ONLY, 17, 0x423e54ca7343e461ULL, 0},
    {2, CRASH_ONLY, 18, 0xdee5c63d88539ebdULL, 0},
    {2, CRASH_ONLY, 19, 0x1c84d6cb06492647ULL, 0},
    {2, CRASH_ONLY, 20, 0xfdc0d86457f487f4ULL, 0},
    {2, CRASH_ONLY, 21, 0x66636ec596cca8e0ULL, 0},
    {2, CRASH_ONLY, 22, 0xdf02435fd7990febULL, 1},
    {2, CRASH_ONLY, 23, 0x91b320c6a6acf358ULL, 0},
    {2, CRASH_ONLY, 24, 0x4835abb32c7de44aULL, 0},
    {2, CRASH_ONLY, 25, 0x939f60a2c30e5dfeULL, 1},
    {2, CRASH_ONLY, 26, 0x818751d9d07388deULL, 1},
    {2, CRASH_ONLY, 27, 0x675a1099272f94b1ULL, 0},
    {2, CRASH_ONLY, 28, 0xb8d811064ff89dbcULL, 0},
    {2, CRASH_ONLY, 29, 0x7563bdd4b002c643ULL, 0},
    {2, CRASH_ONLY, 30, 0xe65f84d1036db2b1ULL, 0},
    {2, CRASH_ONLY, 31, 0xe423386a0080018bULL, 0},
    {2, CRASH_ONLY, 32, 0x00cf36f2f6bcddb1ULL, 1},
    {2, CRASH_ONLY, 33, 0xac0e311e56f81ba3ULL, 0},
    {2, CRASH_ONLY, 34, 0x1ec308bf39a4e635ULL, 0},
    {2, CRASH_ONLY, 35, 0x6a5f33cf50ea7107ULL, 0},
    {2, CRASH_ONLY, 36, 0x8e07e0d60a63eb0eULL, 0},
    {2, CRASH_ONLY, 37, 0xd5c29441404cdc01ULL, 0},
    {2, CRASH_ONLY, 38, 0xd84d7b69c2578ec9ULL, 0},
    {2, CRASH_ONLY, 39, 0xdf7a5b238b2816e6ULL, 2},
    {2, CRASH_ONLY, 40, 0x2fefb466fa070079ULL, 2},
    {2, CRASH_ONLY, 41, 0x6c6acf335ed83f49ULL, 0},
    {2, CRASH_ONLY, 42, 0x85d0efefd01c92efULL, 0},
    {2, CRASH_ONLY, 43, 0xde74539ca3dbc65dULL, 0},
    {2, CRASH_ONLY, 44, 0xa24bcf7e0482fc9dULL, 0},
    {2, CRASH_ONLY, 45, 0x64a4c66715223025ULL, 0},
    {2, CRASH_ONLY, 46, 0xcda83cd7e67468edULL, 0},
    {2, CRASH_ONLY, 47, 0xb719b388a7c8990aULL, 0},
    {2, CRASH_ONLY, 48, 0x0d4bea3ec4a9c210ULL, 0},
    {2, CRASH_ONLY, 49, 0xf513c6f3a7e275e6ULL, 0},
    {2, CRASH_ONLY, 50, 0x04de344fb1e9145dULL, 0},
    {2, CRASH_ONLY, 51, 0x2493af4f6a1b895aULL, 0},
    {2, CRASH_ONLY, 52, 0x8bf55421e78b7ba8ULL, 2},
    {2, CRASH_ONLY, 53, 0xc0bcfa66d637277eULL, 0},
    {2, CRASH_ONLY, 54, 0xbb04615ef1ab5709ULL, 1},
    {2, CRASH_ONLY, 55, 0x2323db8a72f04919ULL, 0},
    {2, CRASH_ONLY, 56, 0x679e9be6d5fa2751ULL, 0},
    {2, CRASH_ONLY, 57, 0x0148314321bf8422ULL, 8},
    {2, CRASH_ONLY, 58, 0xc592b3b5b095133eULL, 0},
    {2, CRASH_ONLY, 59, 0xe2630b15ce3cded8ULL, 0},
    {2, CRASH_ONLY, 60, 0xeecf7b5f95b8a7d1ULL, 0},
    // 2x2, flap
    {2, FLAP_ONLY, 1, 0x4cdaf5701caff36cULL, 0},
    {2, FLAP_ONLY, 2, 0x7073de2383746dd6ULL, 0},
    {2, FLAP_ONLY, 3, 0x82a2b6590280bb4dULL, 0},
    {2, FLAP_ONLY, 4, 0x2e7498ca99296749ULL, 0},
    {2, FLAP_ONLY, 5, 0xe074d98881fc894fULL, 0},
    {2, FLAP_ONLY, 6, 0x37f3d10add2b2863ULL, 0},
    {2, FLAP_ONLY, 7, 0x0f134772c3b2c06fULL, 0},
    {2, FLAP_ONLY, 8, 0x565dc6b44e1e8639ULL, 0},
    {2, FLAP_ONLY, 9, 0x22275a4a0fc2a171ULL, 0},
    {2, FLAP_ONLY, 10, 0x4f8bc0cc1c409ae8ULL, 0},
    {2, FLAP_ONLY, 11, 0x6f4cd9ac2a71b61eULL, 0},
    {2, FLAP_ONLY, 12, 0xf9b2df69165e35ccULL, 0},
    {2, FLAP_ONLY, 13, 0x616456fa66ceea97ULL, 0},
    {2, FLAP_ONLY, 14, 0x6df0bcdc13215228ULL, 0},
    {2, FLAP_ONLY, 15, 0xd2a383b06a727f37ULL, 0},
    {2, FLAP_ONLY, 16, 0xc2b1cd5cc0add6f9ULL, 0},
    {2, FLAP_ONLY, 17, 0x42aa2910dfa92a75ULL, 0},
    {2, FLAP_ONLY, 18, 0x131497c5a631336cULL, 0},
    {2, FLAP_ONLY, 19, 0x14658f6732086380ULL, 0},
    {2, FLAP_ONLY, 20, 0xe97b1ddc38b27f74ULL, 0},
    {2, FLAP_ONLY, 21, 0x82b45a264c1f4abfULL, 0},
    {2, FLAP_ONLY, 22, 0xc66a425fdd3ef040ULL, 0},
    {2, FLAP_ONLY, 23, 0x377c7927b1b91b83ULL, 0},
    {2, FLAP_ONLY, 24, 0xba00471ceb8b54bdULL, 0},
    {2, FLAP_ONLY, 25, 0x1e86d22d734b0a7cULL, 0},
    {2, FLAP_ONLY, 26, 0x7307e3cec04dc8dcULL, 0},
    {2, FLAP_ONLY, 27, 0x2d185796b5299442ULL, 0},
    {2, FLAP_ONLY, 28, 0x65a2954f1aab9ed6ULL, 0},
    {2, FLAP_ONLY, 29, 0x827c5809ffb0d661ULL, 0},
    {2, FLAP_ONLY, 30, 0x7ec2276588b48440ULL, 0},
    {2, FLAP_ONLY, 31, 0xf662c3a297fbde3bULL, 0},
    {2, FLAP_ONLY, 32, 0x5e481bdd0cf29c8dULL, 0},
    {2, FLAP_ONLY, 33, 0x640f103027b36ba6ULL, 0},
    {2, FLAP_ONLY, 34, 0x036caa610d1865d9ULL, 0},
    {2, FLAP_ONLY, 35, 0x75dbaa2b9229d23aULL, 0},
    {2, FLAP_ONLY, 36, 0x1a8fdc68e0f07a64ULL, 0},
    {2, FLAP_ONLY, 37, 0xed9fb30103350f70ULL, 0},
    {2, FLAP_ONLY, 38, 0xdfb77811b2325049ULL, 0},
    {2, FLAP_ONLY, 39, 0x13d932584f20d4ccULL, 0},
    {2, FLAP_ONLY, 40, 0x294aff15ce3f7c67ULL, 0},
    {2, FLAP_ONLY, 41, 0x7ab17e78df0ebe4bULL, 0},
    {2, FLAP_ONLY, 42, 0xe522821605b3b4a9ULL, 0},
    {2, FLAP_ONLY, 43, 0xb7d30f7bf1651e0bULL, 0},
    {2, FLAP_ONLY, 44, 0x847ab80c5e4c0313ULL, 0},
    {2, FLAP_ONLY, 45, 0x54bd1bae8fb13edfULL, 0},
    {2, FLAP_ONLY, 46, 0x0ae38ab716d14b4aULL, 0},
    {2, FLAP_ONLY, 47, 0x291ef606f8198581ULL, 0},
    {2, FLAP_ONLY, 48, 0x16aab6a1417a275fULL, 0},
    {2, FLAP_ONLY, 49, 0x72bb1d066640d28aULL, 0},
    {2, FLAP_ONLY, 50, 0xcbf26f2787436bc3ULL, 0},
    {2, FLAP_ONLY, 51, 0x12c68f6396e60988ULL, 0},
    {2, FLAP_ONLY, 52, 0x3c1cfa5d964bc346ULL, 0},
    {2, FLAP_ONLY, 53, 0xfadd65f76af55255ULL, 0},
    {2, FLAP_ONLY, 54, 0xbf23e77bc3bdd24bULL, 0},
    {2, FLAP_ONLY, 55, 0x0f476ebffe658c5cULL, 0},
    {2, FLAP_ONLY, 56, 0x7632b26ab2d782e6ULL, 0},
    {2, FLAP_ONLY, 57, 0x47b6aee13421b866ULL, 0},
    {2, FLAP_ONLY, 58, 0xda7165f62bdae4bcULL, 0},
    {2, FLAP_ONLY, 59, 0x88e472d5aa06e0acULL, 0},
    {2, FLAP_ONLY, 60, 0xb1eaf223471177d5ULL, 0},
    // 2x2, part
    {2, PARTITIONS, 1, 0x9e478d4288d9fe94ULL, 0},
    {2, PARTITIONS, 2, 0x639130a338a0379bULL, 0},
    {2, PARTITIONS, 3, 0x92034ba848e538b7ULL, 0},
    {2, PARTITIONS, 4, 0x001b5cb816626cfeULL, 0},
    {2, PARTITIONS, 5, 0x6a592ca049c9d37cULL, 0},
    {2, PARTITIONS, 6, 0x2b28db7154522c1cULL, 0},
    {2, PARTITIONS, 7, 0x8db63bfad0dde2d8ULL, 0},
    {2, PARTITIONS, 8, 0xac6fbad499c64a5cULL, 0},
    {2, PARTITIONS, 9, 0xe7589015c4318294ULL, 0},
    {2, PARTITIONS, 10, 0x343f37f5039c9f21ULL, 0},
    {2, PARTITIONS, 11, 0x6d2d14c45c996217ULL, 0},
    {2, PARTITIONS, 12, 0xda17cba02cc81c23ULL, 0},
    {2, PARTITIONS, 13, 0x52844dcf4ce0bf4cULL, 0},
    {2, PARTITIONS, 14, 0xcea151dba4aa21ddULL, 0},
    {2, PARTITIONS, 15, 0xbf92c4ce9113191dULL, 0},
    {2, PARTITIONS, 16, 0xd7e01d910a1dd020ULL, 0},
    {2, PARTITIONS, 17, 0xe3c1c5e0b6c47146ULL, 0},
    {2, PARTITIONS, 18, 0x560bf50a5741ed29ULL, 0},
    {2, PARTITIONS, 19, 0x8f565e5c73dd2e9cULL, 0},
    {2, PARTITIONS, 20, 0xa6dbe7377529e6f7ULL, 0},
    {2, PARTITIONS, 21, 0xb6fd0fd9fa5f3b42ULL, 0},
    {2, PARTITIONS, 22, 0x78cdc4d3a58b92b5ULL, 0},
    {2, PARTITIONS, 23, 0x45d1ab63a4e7f704ULL, 0},
    {2, PARTITIONS, 24, 0x0a10006bf8028debULL, 0},
    {2, PARTITIONS, 25, 0xf8939d9a076d272eULL, 0},
    {2, PARTITIONS, 26, 0xfebd9ce4dd9091bcULL, 0},
    {2, PARTITIONS, 27, 0x47e4e8d649a6df55ULL, 0},
    {2, PARTITIONS, 28, 0x3cd977bf61559103ULL, 0},
    {2, PARTITIONS, 29, 0x89278adbe9abe962ULL, 0},
    {2, PARTITIONS, 30, 0xea23de00da0153ceULL, 0},
    {2, PARTITIONS, 31, 0x5c6b1d12a16fe473ULL, 0},
    {2, PARTITIONS, 32, 0x96e3c9f72677cea8ULL, 0},
    {2, PARTITIONS, 33, 0xc707c46747e8169dULL, 0},
    {2, PARTITIONS, 34, 0x88f62c9398748659ULL, 0},
    {2, PARTITIONS, 35, 0x77615ae4818d911cULL, 0},
    {2, PARTITIONS, 36, 0xf88945788f67c572ULL, 0},
    {2, PARTITIONS, 37, 0xd65655ff05c79cd6ULL, 0},
    {2, PARTITIONS, 38, 0xfe944d414ba52f2cULL, 0},
    {2, PARTITIONS, 39, 0xbb67b537cb991b47ULL, 0},
    {2, PARTITIONS, 40, 0x2d7092fa358f330fULL, 0},
    {2, PARTITIONS, 41, 0x43ffbf77561a225eULL, 0},
    {2, PARTITIONS, 42, 0x881868b0bd9eebbaULL, 0},
    {2, PARTITIONS, 43, 0xec4991ae920c7f32ULL, 0},
    {2, PARTITIONS, 44, 0x181909f2342eba34ULL, 0},
    {2, PARTITIONS, 45, 0x7666b2b3b8f004aeULL, 0},
    {2, PARTITIONS, 46, 0xafab41f8dd1a67afULL, 0},
    {2, PARTITIONS, 47, 0xe62d820601dffbaaULL, 0},
    {2, PARTITIONS, 48, 0x4fbaba88ecb9db54ULL, 0},
    {2, PARTITIONS, 49, 0xd6a9b54358a9781dULL, 0},
    {2, PARTITIONS, 50, 0x03f0d16ed84ae55fULL, 0},
    {2, PARTITIONS, 51, 0xea3ac6aa1edefce3ULL, 0},
    {2, PARTITIONS, 52, 0xa162f7bac8231632ULL, 0},
    {2, PARTITIONS, 53, 0xc53ee424e8bdedcaULL, 0},
    {2, PARTITIONS, 54, 0x8b0b23b69a0bb0a8ULL, 0},
    {2, PARTITIONS, 55, 0xd40b81803100a050ULL, 0},
    {2, PARTITIONS, 56, 0x4f146e7fc432f077ULL, 0},
    {2, PARTITIONS, 57, 0xd0e803dc73de28dfULL, 0},
    {2, PARTITIONS, 58, 0xab9231dfb057fee4ULL, 0},
    {2, PARTITIONS, 59, 0x049f1c0fd2ed87a2ULL, 0},
    {2, PARTITIONS, 60, 0x717d25739f0b8a78ULL, 0},
    // 3x3, defaults
    {3, DEFAULTS, 1, 0x3d5b5967ff886a71ULL, 2},
    {3, DEFAULTS, 2, 0x18f79ecc131c82ddULL, 0},
    {3, DEFAULTS, 3, 0x44d8ce3034434720ULL, 0},
    {3, DEFAULTS, 4, 0xe4d8fc1f99a96da2ULL, 398},
    {3, DEFAULTS, 5, 0x115ae921353e1c0cULL, 0},
    {3, DEFAULTS, 6, 0xa83759ce4b7ccf56ULL, 0},
    {3, DEFAULTS, 7, 0x8fc4fcf5e8a27c0cULL, 0},
    {3, DEFAULTS, 8, 0xcd603b2de2ea5058ULL, 0},
    {3, DEFAULTS, 9, 0x4e3b2797ce386cbaULL, 0},
    {3, DEFAULTS, 10, 0x07d4bc0478d0c4fcULL, 297},
    {3, DEFAULTS, 11, 0x50beeb0943b02c11ULL, 0},
    {3, DEFAULTS, 12, 0xeeb124adf735eaabULL, 6},
    // 3x3, crash
    {3, CRASH_ONLY, 1, 0xbc0a183e3c429b0eULL, 1},
    {3, CRASH_ONLY, 2, 0xb41c726377c7684aULL, 0},
    {3, CRASH_ONLY, 3, 0xffe5f370f37b6519ULL, 0},
    {3, CRASH_ONLY, 4, 0x1a9dc7619e9167d1ULL, 0},
    {3, CRASH_ONLY, 5, 0x16ab229cdfdf90d3ULL, 0},
    {3, CRASH_ONLY, 6, 0x37778c3cccacb5eeULL, 0},
    {3, CRASH_ONLY, 7, 0x5fd15b92afaac0f2ULL, 0},
    {3, CRASH_ONLY, 8, 0x0c7ba95852df1253ULL, 1},
    {3, CRASH_ONLY, 9, 0x91b27798fff4ff71ULL, 0},
    {3, CRASH_ONLY, 10, 0xfda1fd850797cce9ULL, 5},
    {3, CRASH_ONLY, 11, 0xc0e148f9cac65b4fULL, 0},
    {3, CRASH_ONLY, 12, 0xb8556fb137895bb6ULL, 7},
    // 3x3, flap
    {3, FLAP_ONLY, 1, 0xda87d7cf6e6ab1cbULL, 0},
    {3, FLAP_ONLY, 2, 0xa6caf4148ef71b7eULL, 0},
    {3, FLAP_ONLY, 3, 0x89238934c7151065ULL, 0},
    {3, FLAP_ONLY, 4, 0xed124867cd104873ULL, 0},
    {3, FLAP_ONLY, 5, 0x15a9a3fcd4572421ULL, 0},
    {3, FLAP_ONLY, 6, 0x3a28cd223a6a96e8ULL, 0},
    {3, FLAP_ONLY, 7, 0x16a54cbb4ff80337ULL, 0},
    {3, FLAP_ONLY, 8, 0xd6507289b8cbdfe0ULL, 0},
    {3, FLAP_ONLY, 9, 0xd7f20d518ddbf6b5ULL, 0},
    {3, FLAP_ONLY, 10, 0xc1eb696005030ec8ULL, 0},
    {3, FLAP_ONLY, 11, 0xafbb6c2b8d3a9392ULL, 0},
    {3, FLAP_ONLY, 12, 0x7ad73ad73abe319fULL, 0},
    // 3x3, part
    {3, PARTITIONS, 1, 0x36ac6b1f56d4a336ULL, 27},
    {3, PARTITIONS, 2, 0x8f73c808481e39bcULL, 0},
    {3, PARTITIONS, 3, 0x85a79dfea367c53bULL, 0},
    {3, PARTITIONS, 4, 0xdc55bc1cfc6dd645ULL, 27},
    {3, PARTITIONS, 5, 0xdb952b199ef7ba77ULL, 0},
    {3, PARTITIONS, 6, 0x9d45a68dd6e1a882ULL, 0},
    {3, PARTITIONS, 7, 0x7fb133162383041bULL, 0},
    {3, PARTITIONS, 8, 0xc504aefe502b2b71ULL, 0},
    {3, PARTITIONS, 9, 0x59690c761e9629aaULL, 0},
    {3, PARTITIONS, 10, 0x91c0f5548252cc44ULL, 0},
    {3, PARTITIONS, 11, 0x802037c7f656b5b2ULL, 27},
    {3, PARTITIONS, 12, 0xf7157fc7c819a4b7ULL, 0},
    // 4x4, defaults
    {4, DEFAULTS, 1, 0xb1cf97d639d4611eULL, 8},
    {4, DEFAULTS, 2, 0x411856eb0be257c7ULL, 1713},
    {4, DEFAULTS, 3, 0x9f5f2abd650c0ba3ULL, 1282},
    {4, DEFAULTS, 4, 0x97e1aeea84ac83d9ULL, 14},
    {4, DEFAULTS, 5, 0x6ba8116cf1f32948ULL, 1965},
    {4, DEFAULTS, 6, 0x2dbcda7c1f119af3ULL, 742},
    {4, DEFAULTS, 7, 0x22ca03fe5bfacdc0ULL, 4},
    {4, DEFAULTS, 8, 0x43a47ed489a7e979ULL, 1717},
    // 4x4, crash
    {4, CRASH_ONLY, 1, 0x9e2fd8e17afa03b0ULL, 11},
    {4, CRASH_ONLY, 2, 0x5653b7102769c1afULL, 3},
    {4, CRASH_ONLY, 3, 0x86a8a899631da3f5ULL, 8},
    {4, CRASH_ONLY, 4, 0x5d772d530a7a3b56ULL, 14},
    {4, CRASH_ONLY, 5, 0xdf3ce5d96e128980ULL, 1},
    {4, CRASH_ONLY, 6, 0x5d94ed3759e2ddabULL, 8},
    {4, CRASH_ONLY, 7, 0x1b3f951d264215c3ULL, 2},
    {4, CRASH_ONLY, 8, 0x462fe988d788f46cULL, 4},
    // 4x4, flap
    {4, FLAP_ONLY, 1, 0x0a53966c24b2a3feULL, 0},
    {4, FLAP_ONLY, 2, 0x1951c5b655dc0d48ULL, 2328},
    {4, FLAP_ONLY, 3, 0x0401b34c9066d310ULL, 0},
    {4, FLAP_ONLY, 4, 0x7c571473f8df8503ULL, 0},
    {4, FLAP_ONLY, 5, 0xe4335a9668f3881bULL, 1882},
    {4, FLAP_ONLY, 6, 0xfe7a2da8d3eb2a70ULL, 2031},
    {4, FLAP_ONLY, 7, 0x0228200ebd5452ecULL, 0},
    {4, FLAP_ONLY, 8, 0xe3ad1bea449816b7ULL, 1523},
    // 1x8, defaults
    {1, DEFAULTS, 1, 0xc53869c569df8d25ULL, 19, 8},
    {1, DEFAULTS, 2, 0x3bfe490cb124d676ULL, 6, 8},
    {1, DEFAULTS, 3, 0x613c3e86a813a209ULL, 0, 8},
    {1, DEFAULTS, 4, 0x5dfcf361001205f4ULL, 78, 8},
    {1, DEFAULTS, 5, 0x232ae0f745eaee3fULL, 0, 8},
    {1, DEFAULTS, 6, 0x1eb80e3cace3421eULL, 0, 8},
    {1, DEFAULTS, 7, 0x78c676bc484ebab5ULL, 0, 8},
    {1, DEFAULTS, 8, 0x80cbb9b7d500b83aULL, 4, 8},
    {1, DEFAULTS, 9, 0x960b394b4934d3c0ULL, 0, 8},
    {1, DEFAULTS, 10, 0x05e980b39c9c95c0ULL, 4, 8},
    // 8x1, defaults
    {8, DEFAULTS, 1, 0xb6462d3a36fa45b0ULL, 19, 1},
    {8, DEFAULTS, 2, 0x583052807c309a64ULL, 6, 1},
    {8, DEFAULTS, 3, 0x266454c0f582e2e2ULL, 0, 1},
    {8, DEFAULTS, 4, 0x8ac48b38e1fc63a1ULL, 75, 1},
    {8, DEFAULTS, 5, 0x9dc9716555b733b1ULL, 0, 1},
    {8, DEFAULTS, 6, 0x599ba81c6b1a742cULL, 0, 1},
    {8, DEFAULTS, 7, 0xf4d68c4badd2795cULL, 0, 1},
    {8, DEFAULTS, 8, 0xedd75af0fadaf173ULL, 4, 1},
    {8, DEFAULTS, 9, 0x9e5f599b92729b90ULL, 0, 1},
    {8, DEFAULTS, 10, 0x12d7e87354fad118ULL, 4, 1},
    // 2x4, defaults
    {2, DEFAULTS, 1, 0x7c602a87e07cd375ULL, 3, 4},
    {2, DEFAULTS, 2, 0x6e03d8f3a381b229ULL, 366, 4},
    {2, DEFAULTS, 3, 0x34b971955750f72eULL, 0, 4},
    {2, DEFAULTS, 4, 0xd95d8b0d61ecf0d7ULL, 236, 4},
    {2, DEFAULTS, 5, 0x19a2645d627d1ce9ULL, 0, 4},
    {2, DEFAULTS, 6, 0x95fe849fef16d83fULL, 0, 4},
    {2, DEFAULTS, 7, 0xec8eb0f90b5b3d2fULL, 0, 4},
    {2, DEFAULTS, 8, 0x683b795af9eb8060ULL, 4, 4},
    {2, DEFAULTS, 9, 0xa79d65e7a7110706ULL, 0, 4},
    {2, DEFAULTS, 10, 0x0b7072986e480534ULL, 4, 4},
    // 3x5, defaults
    {3, DEFAULTS, 1, 0x4a4ff69dc9746728ULL, 2, 5},
    {3, DEFAULTS, 2, 0x96b1f522a512181eULL, 2, 5},
    {3, DEFAULTS, 3, 0x354d32a0752d7943ULL, 1, 5},
    {3, DEFAULTS, 4, 0x5ff72bb5e4854013ULL, 46, 5},
    {3, DEFAULTS, 5, 0x81b23342119a4375ULL, 1844, 5},
    {3, DEFAULTS, 6, 0x7a08dbd419306d4eULL, 680, 5},
    {3, DEFAULTS, 7, 0x9b5067119ab25375ULL, 3, 5},
    {3, DEFAULTS, 8, 0xa08c3bab69cb509aULL, 1754, 5},
    {3, DEFAULTS, 9, 0x5def9427f076aea2ULL, 1854, 5},
    {3, DEFAULTS, 10, 0xee5df17d36cd65f5ULL, 1357, 5},
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
