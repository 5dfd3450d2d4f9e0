/**
 * @file
 * Differential suite for the runtime's Sg-EM group encoder: every
 * compiled kernel tier against the functional oracle
 * SgEmQuantizer::encodeGroup, byte for byte — scale code, metadata
 * byte and all 16 element bytes of every group.
 *
 * The kernels evaluate the 12 candidate (bias, multiplier) scales of
 * a group side by side, one per lane, so exactness rests on three
 * rules the suite pins separately: the scale/inverse tables are the
 * oracle's own floats (subgroupScale and 1.0f / scale), each lane
 * sums its squared errors in element order in double, and the
 * winner is the first strict minimum (multiplier order, then bias
 * order) with NaN errors never displacing the current best.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/m2xfp_packed.hh"
#include "core/sg_em.hh"
#include "runtime/packed_quantize.hh"
#include "runtime/simd.hh"
#include "runtime/thread_pool.hh"
#include "util/rng.hh"

namespace m2x {
namespace runtime {
namespace {

constexpr size_t groupSize = PackedM2xfpTensor::groupSize;

/** The functional encoding of one group as packed stream bytes. */
struct GroupBytes
{
    uint8_t elems[16];
    uint8_t scale;
    uint8_t meta;
};

GroupBytes
oracleBytes(const SgEmQuantizer &q, const float *in)
{
    SgEmGroup g = q.encodeGroup({in, groupSize});
    GroupBytes b{};
    b.scale = g.scale.code();
    for (size_t s = 0; s < g.sgMeta.size(); ++s)
        b.meta = static_cast<uint8_t>(b.meta | (g.sgMeta[s] << (2 * s)));
    for (size_t j = 0; j < 16; ++j)
        b.elems[j] = static_cast<uint8_t>(g.fp4Codes[2 * j] |
                                          (g.fp4Codes[2 * j + 1] << 4));
    return b;
}

std::string
describe(const float *in)
{
    std::string s;
    for (size_t i = 0; i < groupSize; ++i) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%a ", static_cast<double>(in[i]));
        s += buf;
    }
    return s;
}

/** Holds one tier to the oracle on one group; true on a match. */
bool
groupMatches(detail::SgEmEncodeGroupFn encode, const SgEmQuantizer &q,
             const float *in)
{
    GroupBytes want = oracleBytes(q, in);
    GroupBytes got{};
    const SgEmConfig &cfg = q.config();
    encode(in, cfg.rule, cfg.adaptiveScale, got.elems, &got.scale,
           &got.meta);
    bool ok = got.scale == want.scale && got.meta == want.meta;
    for (size_t j = 0; j < 16; ++j)
        ok = ok && got.elems[j] == want.elems[j];
    EXPECT_TRUE(ok) << "scale " << int(got.scale) << " vs "
                    << int(want.scale) << ", meta " << int(got.meta)
                    << " vs " << int(want.meta)
                    << "\n  group: " << describe(in);
    return ok;
}

/** Runs @p groups through every tier and config; stops a tier at its
 *  first mismatch so a broken kernel reports one group, not many. */
void
expectAllTiersMatch(const std::vector<std::vector<float>> &groups,
                    const std::vector<SgEmConfig> &configs)
{
    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
        detail::SgEmEncodeGroupFn encode =
            detail::quantizeKernels(isa).encodeSgEmGroup;
        for (const SgEmConfig &cfg : configs) {
            SCOPED_TRACE(std::string("rule=") + scaleRuleName(cfg.rule) +
                         (cfg.adaptiveScale ? " adaptive" : " fixed"));
            SgEmQuantizer q(cfg);
            for (const auto &g : groups)
                if (!groupMatches(encode, q, g.data()))
                    break;
        }
    }
}

SgEmConfig
paperConfig(ScaleRule rule = ScaleRule::Floor, bool adaptive = true)
{
    SgEmConfig cfg;
    cfg.rule = rule;
    cfg.adaptiveScale = adaptive;
    return cfg;
}

/** The paper config, its fixed-scale (one bias) variant, and every
 *  scale rule. */
std::vector<SgEmConfig>
allConfigs()
{
    std::vector<SgEmConfig> out;
    for (ScaleRule r : {ScaleRule::Floor, ScaleRule::Ceil,
                        ScaleRule::Rtn1, ScaleRule::Rtn2,
                        ScaleRule::Rtne})
        for (bool adaptive : {true, false})
            out.push_back(paperConfig(r, adaptive));
    return out;
}

/**
 * The configs whose rule takes the log of the block max itself.
 * Ceil and RTN1 divide the max by 6 first, which underflows to zero
 * for denormal blocks, where computeSharedScale asserts — so the
 * blocks near the bottom of the range run under these rules only.
 */
std::vector<SgEmConfig>
log2MaxConfigs()
{
    std::vector<SgEmConfig> out;
    for (ScaleRule r : {ScaleRule::Floor, ScaleRule::Rtn2,
                        ScaleRule::Rtne})
        for (bool adaptive : {true, false})
            out.push_back(paperConfig(r, adaptive));
    return out;
}

TEST(SgEmEncode, ScaleTablesAreTheOraclesFloats)
{
    const detail::SgEmScaleTable &tab = detail::SgEmScaleTable::get();
    SgEmQuantizer q = SgEmQuantizer::paperWeights();
    for (unsigned c = 0; c < 255; ++c) {
        ScaleE8m0 s = ScaleE8m0::fromCode(static_cast<uint8_t>(c));
        for (unsigned m = 0; m < 4; ++m) {
            float want = q.subgroupScale(s, static_cast<uint8_t>(m));
            ASSERT_EQ(std::bit_cast<uint32_t>(tab.scale[c][m]),
                      std::bit_cast<uint32_t>(want))
                << "code " << c << " m " << m;
            ASSERT_EQ(std::bit_cast<uint32_t>(tab.inv[c][m]),
                      std::bit_cast<uint32_t>(1.0f / want))
                << "code " << c << " m " << m;
        }
    }
}

TEST(SgEmEncode, SelectionTakesTheFirstStrictMinimum)
{
    double err[4][detail::sgEmCandidates];
    auto fill = [&](double v) {
        for (auto &row : err)
            for (double &e : row)
                e = v;
    };
    uint8_t mult[4];

    // All ties: multiplier 0 of bias -1 (lane 0) wins everywhere.
    fill(1.0);
    EXPECT_EQ(detail::sgEmSelect(err, true, mult), 0u);
    for (uint8_t m : mult)
        EXPECT_EQ(m, 0);

    // A later multiplier wins only when strictly smaller; equal
    // minima keep the earlier multiplier.
    fill(1.0);
    err[0][4 * 1 + 2] = 0.5; // b = 0, m = 2
    err[0][4 * 1 + 3] = 0.5; // b = 0, m = 3: tie, loses to m = 2
    err[1][4 * 1 + 1] = 0.25;
    EXPECT_EQ(detail::sgEmSelect(err, true, mult), 1u);
    EXPECT_EQ(mult[0], 2);
    EXPECT_EQ(mult[1], 1);
    EXPECT_EQ(mult[2], 0);

    // Equal bias totals keep the earlier bias.
    fill(1.0);
    err[0][4 * 1 + 0] = 0.5;
    err[0][4 * 2 + 0] = 0.5;
    EXPECT_EQ(detail::sgEmSelect(err, true, mult), 1u);

    // A NaN error never replaces the current best ...
    fill(1.0);
    err[2][4 * 0 + 1] = std::nan("");
    err[2][4 * 0 + 2] = 0.5;
    EXPECT_EQ(detail::sgEmSelect(err, true, mult), 0u);
    EXPECT_EQ(mult[2], 2);
    // ... and a NaN best is never replaced, at either level.
    fill(1.0);
    err[3][4 * 0 + 0] = std::nan("");
    err[3][4 * 1 + 0] = 0.0;
    EXPECT_EQ(detail::sgEmSelect(err, true, mult), 0u);
    EXPECT_EQ(mult[3], 0);

    // Without the adaptive bias only b = 0 competes.
    fill(1.0);
    err[0][4 * 0 + 0] = 0.0;
    err[0][4 * 1 + 3] = 0.5;
    EXPECT_EQ(detail::sgEmSelect(err, false, mult), 1u);
    EXPECT_EQ(mult[0], 3);
}

TEST(SgEmEncode, SeededGroupsAcrossTheExponentRange)
{
    // Normal and uniform groups scaled by 2^-140 .. 2^130: subnormal
    // blocks, the lower E8M0 clamp, ordinary magnitudes and blocks
    // that overflow to Inf.
    Rng rng(0x5E6E3);
    std::vector<std::vector<float>> groups;
    for (int e = -140; e <= 130; ++e) {
        for (int rep = 0; rep < 6; ++rep) {
            std::vector<float> g(groupSize);
            for (float &v : g) {
                double x = rep % 2 == 0 ? rng.normal()
                                        : rng.uniform(-1.0, 1.0);
                v = std::ldexp(static_cast<float>(x), e);
            }
            groups.push_back(g);
        }
    }
    expectAllTiersMatch(groups, {paperConfig(),
                                 paperConfig(ScaleRule::Floor, false)});
}

TEST(SgEmEncode, EveryRuleAndTheFixedScaleConfig)
{
    Rng rng(0x5E6E4);
    std::vector<std::vector<float>> groups;
    for (int rep = 0; rep < 400; ++rep) {
        std::vector<float> g(groupSize);
        int e = static_cast<int>(rng.uniformInt(40)) - 20;
        for (float &v : g)
            v = std::ldexp(static_cast<float>(rng.studentT(3.0)), e);
        groups.push_back(g);
    }
    expectAllTiersMatch(groups, allConfigs());
}

TEST(SgEmEncode, SpecialValues)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float dmin = std::numeric_limits<float>::denorm_min();
    const float specials[] = {0.0f, -0.0f, inf, -inf, nan, -nan,
                              dmin, -dmin, FLT_MAX, -FLT_MAX,
                              FLT_MIN, -FLT_MIN};
    Rng rng(0x5E6E5);
    std::vector<std::vector<float>> groups;
    // Whole groups of one special.
    for (float s : specials)
        groups.emplace_back(groupSize, s);
    // Specials planted into ordinary groups, one or several per
    // subgroup, including alone in a subgroup of zeros.
    for (int rep = 0; rep < 600; ++rep) {
        std::vector<float> g(groupSize);
        for (float &v : g)
            v = static_cast<float>(rng.normal());
        size_t n = 1 + rng.uniformInt(4);
        for (size_t k = 0; k < n; ++k)
            g[rng.uniformInt(groupSize)] =
                specials[rng.uniformInt(std::size(specials))];
        if (rep % 5 == 0)
            for (size_t i = 8; i < 16; ++i)
                g[i] = 0.0f;
        groups.push_back(g);
    }
    expectAllTiersMatch(groups, log2MaxConfigs());
}

TEST(SgEmEncode, Fp4TiePointsTimesTheCandidateScales)
{
    // FP4 rounding ties (and the grid points beside them) times
    // every candidate subgroup scale of the group's own shared
    // exponent, so candidate lanes sit exactly on the ladder's
    // decision boundaries.
    const float ties[] = {0.25f, 0.75f, 1.25f, 1.75f, 2.5f, 3.5f,
                          5.0f,  0.5f,  1.0f,  1.5f,  2.0f, 3.0f,
                          4.0f,  6.0f,  7.0f};
    const float mults[] = {1.0f, 1.25f, 1.5f, 1.75f};
    Rng rng(0x5E6E6);
    std::vector<std::vector<float>> groups;
    for (int e : {-130, -127, -126, -20, -3, 0, 1, 2, 7, 60, 124, 125}) {
        for (int rep = 0; rep < 40; ++rep) {
            std::vector<float> g(groupSize);
            for (float &v : g) {
                float t = ties[rng.uniformInt(std::size(ties))];
                float m = mults[rng.uniformInt(std::size(mults))];
                int b = static_cast<int>(rng.uniformInt(3)) - 1;
                float sign = rng.uniformInt(2) ? -1.0f : 1.0f;
                v = sign * std::ldexp(t * m, e + b);
            }
            groups.push_back(g);
        }
    }
    expectAllTiersMatch(groups, allConfigs());
}

TEST(SgEmEncode, SharedExponentAtTheE8m0Clamp)
{
    // Blocks whose shared exponent clamps at -127: the b = -1
    // candidate saturates onto the b = 0 code, so two candidates
    // share a scale (and an error) and the earlier one must win.
    // (No finite block reaches the +127 clamp: the largest shared
    // exponent any rule gives FLT_MAX is 126, whose b = +1 candidate
    // is the top code itself — covered by the FLT_MAX blocks.)
    Rng rng(0x5E6E7);
    std::vector<std::vector<float>> groups;
    for (int rep = 0; rep < 300; ++rep) {
        std::vector<float> g(groupSize);
        int e = -150 + static_cast<int>(rng.uniformInt(28));
        for (float &v : g)
            v = std::ldexp(static_cast<float>(rng.normal()), e);
        groups.push_back(g);
        std::vector<float> top(groupSize);
        for (float &v : top)
            v = static_cast<float>(rng.uniform(-1.0, 1.0)) * FLT_MAX;
        groups.push_back(top);
    }
    expectAllTiersMatch(groups, log2MaxConfigs());

    // The clamp really is hit.
    SgEmQuantizer q = SgEmQuantizer::paperWeights();
    std::vector<float> tiny(groupSize, std::ldexp(1.0f, -140));
    EXPECT_EQ(q.encodeGroup(tiny).scale.exponent(), ScaleE8m0::minExp);
}

/**
 * Matrices for the row-level packers: ragged tails and, unless
 * @p plain, specials (the M2-NVFP4 functional encoder rejects
 * non-finite blocks, so its runs use plain matrices).
 */
Matrix
raggedMatrix(size_t rows, size_t cols, uint64_t seed, bool plain = false)
{
    Matrix m(rows, cols);
    Rng rng(seed);
    for (float &v : m.flat())
        v = static_cast<float>(rng.studentT(4.0));
    if (plain)
        return m;
    const float specials[] = {std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::quiet_NaN(),
                              -0.0f, 1e-42f, 3.5f, -FLT_MAX};
    for (size_t i = 0; i < std::size(specials) && i < m.size(); ++i)
        m.flat()[(i * 53) % m.size()] = specials[i];
    return m;
}

void
expectSameStreams(const PackedM2xfpTensor &got,
                  const PackedM2xfpTensor &want)
{
    EXPECT_EQ(got.codec(), want.codec());
    EXPECT_EQ(got.rows(), want.rows());
    EXPECT_EQ(got.cols(), want.cols());
    EXPECT_EQ(got.elementStream(), want.elementStream());
    EXPECT_EQ(got.scaleStream(), want.scaleStream());
    EXPECT_EQ(got.metadataStream(), want.metadataStream());
}

TEST(SgEmEncode, WeightPackersMatchTheFunctionalPackersWithTails)
{
    ThreadPool pool(3);
    const size_t widths[] = {1, 7, 31, 32, 33, 63, 96, 100, 161};
    for (size_t cols : widths) {
        Matrix m = raggedMatrix(5, cols, 0x5E6E8 + cols);
        for (ScaleRule r : {ScaleRule::Floor, ScaleRule::Rtne}) {
            SgEmQuantizer q(paperConfig(r));
            PackedM2xfpTensor want = PackedM2xfpTensor::packWeights(m, q);
            for (SimdIsa isa : supportedSimdIsas()) {
                SCOPED_TRACE(std::string("isa=") + simdIsaName(isa) +
                             " cols=" + std::to_string(cols));
                expectSameStreams(
                    PackedM2xfpTensor::packWeights(m, q, &pool, isa),
                    want);
            }
        }
        Matrix plain = raggedMatrix(5, cols, 0x5E6E8 + cols, true);
        for (PackedCodec c : allPackedCodecs()) {
            const Matrix &src = packedCodecInfo(c).scaleIsFp8 ? plain : m;
            PackedM2xfpTensor want =
                PackedM2xfpTensor::packWeightsCodec(src, c);
            for (SimdIsa isa : supportedSimdIsas()) {
                SCOPED_TRACE(std::string("isa=") + simdIsaName(isa) +
                             " codec=" + packedCodecName(c) +
                             " cols=" + std::to_string(cols));
                expectSameStreams(PackedM2xfpTensor::packWeightsCodec(
                                      src, c, &pool, isa),
                                  want);
            }
        }
    }
}

TEST(SgEmEncode, SgEmActivationAndKvAppendMatchWithTails)
{
    ThreadPool pool(3);
    const size_t widths[] = {5, 32, 40, 100};
    for (size_t cols : widths) {
        Matrix m = raggedMatrix(7, cols, 0x5E6E9 + cols);
        PackedM2xfpTensor want =
            PackedM2xfpTensor::packActivationsCodec(m, PackedCodec::SgEm);
        for (SimdIsa isa : supportedSimdIsas()) {
            SCOPED_TRACE(std::string("isa=") + simdIsaName(isa) +
                         " cols=" + std::to_string(cols));
            expectSameStreams(PackedM2xfpTensor::packActivationsCodec(
                                  m, PackedCodec::SgEm, &pool, isa),
                              want);
            // KV-style growth: single rows, then a multi-row chunk.
            PackedM2xfpTensor kv = PackedM2xfpTensor::emptyActivationsCodec(
                cols, PackedCodec::SgEm);
            kv.appendActivationRowsCodec(m.data(), 1, isa, &pool);
            kv.appendActivationRowsCodec(m.data() + cols, 1, isa, &pool);
            kv.appendActivationRowsCodec(m.data() + 2 * cols, 5, isa,
                                         &pool);
            expectSameStreams(kv, want);
        }
    }
}

} // anonymous namespace
} // namespace runtime
} // namespace m2x
