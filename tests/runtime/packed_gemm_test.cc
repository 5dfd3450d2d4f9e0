/**
 * @file
 * Parity of the packed-domain GEMM against the unpack-then-matmulNt
 * reference over randomized shapes including ragged K (not divisible
 * by the group or subgroup size), several thread counts, tile
 * boundary and degenerate shapes — on every available ISA tier: the
 * scalar tier must be bit-exact, vector tiers within the SIMD
 * tolerance contract. Also property-tests the tile-grid grain
 * heuristic.
 */

#include <gtest/gtest.h>

#include "core/m2xfp.hh"
#include "gemm/gemm.hh"
#include "runtime/packed_gemm.hh"
#include "runtime/packed_gemm_kernels.hh"
#include "runtime_test_util.hh"
#include "util/bits.hh"
#include "util/rng.hh"

namespace m2x {
namespace runtime {
namespace {

using test::expectMatricesBitExact;
using test::expectMatricesMatch;
using test::randomMatrix;

/**
 * Pack a and w in their paper roles, multiply both ways on every
 * available ISA tier, and hold each tier to its contract (scalar:
 * exact float equality on every output element).
 */
void
expectParity(size_t m, size_t n, size_t k, uint64_t seed,
             ThreadPool *pool = nullptr)
{
    Matrix a = randomMatrix(m, k, seed, 4.0);
    Matrix w = randomMatrix(n, k, seed ^ 0xfeedu, 6.0);
    ElemEmQuantizer aq = makeM2xfpActivationQuantizer();
    SgEmQuantizer wq = makeM2xfpWeightQuantizer();
    PackedM2xfpTensor pa = PackedM2xfpTensor::packActivations(a, aq);
    PackedM2xfpTensor pw = PackedM2xfpTensor::packWeights(w, wq);

    Matrix ref = matmulNt(pa.unpackActivations(aq),
                          pw.unpackWeights(wq));
    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
        Matrix got = packedMatmulNt(pa, pw, pool, isa);
        expectMatricesMatch(got, ref, isa);
    }
    // The default entry point must behave like the active tier.
    Matrix via_default = packedMatmulNt(pa, pw, pool);
    expectMatricesBitExact(
        via_default, packedMatmulNt(pa, pw, pool, activeSimdIsa()));
}

TEST(PackedGemm, GroupAlignedShapes)
{
    expectParity(4, 8, 32, 1);
    expectParity(16, 16, 64, 2);
    expectParity(33, 20, 96, 3);
}

TEST(PackedGemm, RaggedKNotDivisibleBy32)
{
    // Tail groups of 8 and 16 elements (subgroup-aligned).
    expectParity(5, 9, 40, 4);
    expectParity(12, 17, 48, 5);
}

TEST(PackedGemm, RaggedKNotDivisibleBy8)
{
    // Tail groups that split a subgroup: padding must not leak into
    // any output.
    expectParity(5, 9, 35, 6);
    expectParity(7, 21, 67, 7);
    expectParity(3, 5, 7, 8); // K smaller than one subgroup-pair
}

TEST(PackedGemm, TileBoundaryShapes)
{
    // Exactly one tile, one-past, and one-short in each dimension.
    expectParity(16, 16, 32, 9);
    expectParity(17, 15, 32, 10);
    expectParity(15, 17, 32, 11);
    expectParity(1, 1, 32, 12);
    expectParity(1, 40, 33, 13);
    expectParity(40, 1, 33, 14);
}

TEST(PackedGemm, RandomizedShapeSweep)
{
    Rng rng(0xabcdef);
    for (int trial = 0; trial < 12; ++trial) {
        size_t m = 1 + rng.uniformInt(40);
        size_t n = 1 + rng.uniformInt(40);
        size_t k = 1 + rng.uniformInt(150);
        expectParity(m, n, k, 100 + trial);
    }
}

TEST(PackedGemm, ThreadCountsAgree)
{
    ThreadPool pool1(1), pool2(2), pool4(4);
    expectParity(37, 29, 90, 200, &pool1);
    expectParity(37, 29, 90, 200, &pool2);
    expectParity(37, 29, 90, 200, &pool4);
}

TEST(PackedGemm, DegenerateShapesOnManyLanePools)
{
    // Wide-but-short (one row stripe), tall-but-narrow (one column
    // stripe), and K below the group size, on pools with far more
    // lanes than the natural work split — the grain heuristic must
    // neither serialize nor break parity on any of them.
    ThreadPool pool8(8), pool16(16);
    for (ThreadPool *pool : {&pool8, &pool16}) {
        expectParity(1, 300, 64, 300, pool);  // 1xN, many jt
        expectParity(300, 1, 64, 301, pool);  // Mx1, many it
        expectParity(1, 300, 7, 302, pool);   // 1xN, K < groupSize
        expectParity(300, 1, 7, 303, pool);   // Mx1, K < groupSize
        expectParity(2, 40, 24, 304, pool);   // few tiles per lane
        expectParity(16, 16, 16, 305, pool);  // single tile
    }
}

/**
 * Run the blocked driver with an explicitly pinned (normalized)
 * block hierarchy on every tier and hold each to its contract —
 * scalar stays bit-exact under any mc/kc/nc, vector tiers stay
 * within tolerance.
 */
void
expectBlockedParity(size_t m, size_t n, size_t k, size_t mc,
                    size_t kc, size_t nc, uint64_t seed)
{
    Matrix a = randomMatrix(m, k, seed, 4.0);
    Matrix w = randomMatrix(n, k, seed ^ 0xfeedu, 6.0);
    ElemEmQuantizer aq = makeM2xfpActivationQuantizer();
    SgEmQuantizer wq = makeM2xfpWeightQuantizer();
    PackedM2xfpTensor pa = PackedM2xfpTensor::packActivations(a, aq);
    PackedM2xfpTensor pw = PackedM2xfpTensor::packWeights(w, wq);

    Matrix ref = matmulNt(pa.unpackActivations(aq),
                          pw.unpackWeights(wq));
    ThreadPool pool(3);
    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa) +
                     " blocks=" + std::to_string(mc) + "/" +
                     std::to_string(kc) + "/" + std::to_string(nc));
        detail::GemmBlocking b =
            detail::normalizeBlocking(isa, mc, kc, nc);
        Matrix got;
        detail::packedMatmulNtBlocked(pa, pw, got, &pool, isa, b);
        expectMatricesMatch(got, ref, isa);
    }
}

TEST(PackedGemm, BlockedExplicitHierarchySweep)
{
    // Block boundaries in every dimension: blocks far smaller than
    // the matrix (many panels and depth slices), exactly one block,
    // one-past and one-short. kc values are pre-normalization (they
    // round up to the 32-element group).
    expectBlockedParity(65, 65, 96, 16, 32, 16, 40);
    expectBlockedParity(64, 64, 64, 64, 64, 64, 41);
    expectBlockedParity(33, 17, 100, 32, 32, 16, 42);
    expectBlockedParity(16, 48, 256, 16, 64, 16, 43);
}

TEST(PackedGemm, BlockedKSmallerThanKc)
{
    // K < KC (single depth slice) including ragged K: the slice
    // clamp and the scalar pad exclusion must both hold.
    expectBlockedParity(20, 20, 33, 16, 256, 16, 44);
    expectBlockedParity(7, 9, 5, 16, 512, 16, 45);
}

TEST(PackedGemm, BlockedMSmallerThanRegisterTile)
{
    // M below every tier's MR: only the ragged-edge microkernel
    // paths run.
    expectBlockedParity(1, 64, 96, 64, 64, 32, 46);
    expectBlockedParity(3, 33, 40, 128, 256, 128, 47);
    expectBlockedParity(5, 100, 64, 128, 256, 32, 48);
}

TEST(PackedGemm, BlockedSinglePanelShapes)
{
    // The whole problem fits one W panel / one A block: the task
    // grid degenerates to 1x1 and the panel is decoded exactly once.
    expectBlockedParity(8, 8, 32, 128, 256, 128, 49);
    expectBlockedParity(100, 100, 128, 512, 512, 512, 50);
}

TEST(PackedGemm, BlockEnvKnobsAreNormalized)
{
    // gemmBlocking() must never hand the driver a hierarchy that
    // violates a kernel invariant, whatever the env said; the
    // normalizer is the single chokepoint.
    for (SimdIsa isa : supportedSimdIsas()) {
        detail::GemmBlocking d = detail::gemmBlocking(isa);
        EXPECT_EQ(d.mc % d.mr, 0u) << simdIsaName(isa);
        EXPECT_EQ(d.nc % d.nr, 0u) << simdIsaName(isa);
        EXPECT_EQ(d.kc % PackedM2xfpTensor::groupSize, 0u)
            << simdIsaName(isa);
        detail::GemmBlocking b = detail::normalizeBlocking(isa, 1,
                                                           1, 1);
        EXPECT_EQ(b.mc, b.mr) << simdIsaName(isa);
        EXPECT_EQ(b.nc, b.nr) << simdIsaName(isa);
        EXPECT_EQ(b.kc, PackedM2xfpTensor::groupSize)
            << simdIsaName(isa);
    }
}

TEST(PackedGemm, GrainHeuristicInvariants)
{
    // Exhaustive sweep of the block-grid grain policy: a chunk is at
    // least one task, never more than the grid, and for multi-lane
    // pools the chunk count never collapses below min(n_tasks,
    // 2*lanes) — i.e. no shape serializes while tasks remain. Tasks
    // enumerate ic-fastest, so a stripe of n_ic tasks shares one
    // decoded W panel.
    for (size_t n_ic = 1; n_ic <= 48; ++n_ic) {
        for (size_t n_jc = 1; n_jc <= 48; ++n_jc) {
            size_t n_tasks = n_ic * n_jc;
            for (size_t lanes : {1u, 2u, 3u, 4u, 8u, 16u, 32u}) {
                size_t grain =
                    detail::packedGemmGrain(n_ic, n_jc, lanes);
                ASSERT_GE(grain, 1u)
                    << n_ic << "x" << n_jc << " @" << lanes;
                ASSERT_LE(grain, n_tasks)
                    << n_ic << "x" << n_jc << " @" << lanes;
                if (lanes < 2)
                    continue;
                size_t chunks = ceilDiv(n_tasks, grain);
                ASSERT_GE(chunks,
                          std::min<size_t>(n_tasks, 2 * lanes))
                    << n_ic << "x" << n_jc << " @" << lanes
                    << " grain " << grain;
                // When panel stripes balance the lanes, chunks must
                // be stripe-aligned so each W panel is decoded once
                // per stripe.
                if (n_jc >= 2 * lanes) {
                    ASSERT_EQ(grain, n_ic)
                        << n_ic << "x" << n_jc << " @" << lanes;
                }
            }
        }
    }
}

TEST(PackedGemm, NoBlockConfigurationSerializesAMultiLanePool)
{
    // The grain is derived from the MC/NC cache blocks, so sweep
    // actual block configurations (normalized per ISA) against a
    // spread of output shapes: the resulting block grid must always
    // chunk into at least min(n_tasks, 2*lanes) pieces.
    const size_t shapes[][2] = {{1, 1},     {1, 513},  {513, 1},
                                {64, 64},   {100, 700}, {700, 100},
                                {511, 513}, {2048, 96}, {96, 2048}};
    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
        for (size_t mc : {1u, 16u, 64u, 128u, 512u}) {
            for (size_t nc : {1u, 16u, 64u, 128u, 512u}) {
                detail::GemmBlocking b =
                    detail::normalizeBlocking(isa, mc, 256, nc);
                ASSERT_EQ(b.mc % b.mr, 0u);
                ASSERT_EQ(b.nc % b.nr, 0u);
                for (const auto &s : shapes) {
                    size_t n_ic = ceilDiv(s[0], b.mc);
                    size_t n_jc = ceilDiv(s[1], b.nc);
                    size_t n_tasks = n_ic * n_jc;
                    for (size_t lanes : {2u, 4u, 8u, 32u}) {
                        size_t grain = detail::packedGemmGrain(
                            n_ic, n_jc, lanes);
                        size_t chunks = ceilDiv(n_tasks, grain);
                        ASSERT_GE(chunks, std::min<size_t>(
                                              n_tasks, 2 * lanes))
                            << s[0] << "x" << s[1] << " mc=" << b.mc
                            << " nc=" << b.nc << " @" << lanes;
                    }
                }
            }
        }
    }
}

TEST(PackedGemm, OutputParameterOverwrites)
{
    Matrix a = randomMatrix(4, 32, 300, 4.0);
    Matrix w = randomMatrix(6, 32, 301, 6.0);
    ElemEmQuantizer aq = makeM2xfpActivationQuantizer();
    SgEmQuantizer wq = makeM2xfpWeightQuantizer();
    PackedM2xfpTensor pa = PackedM2xfpTensor::packActivations(a, aq);
    PackedM2xfpTensor pw = PackedM2xfpTensor::packWeights(w, wq);
    Matrix c(99, 99, 123.0f); // wrong shape, stale contents
    packedMatmulNt(pa, pw, c, nullptr, SimdIsa::Scalar);
    EXPECT_EQ(c.rows(), 4u);
    EXPECT_EQ(c.cols(), 6u);
    Matrix ref = matmulNt(pa.unpackActivations(aq),
                          pw.unpackWeights(wq));
    expectMatricesBitExact(c, ref);
}

} // anonymous namespace
} // namespace runtime
} // namespace m2x
