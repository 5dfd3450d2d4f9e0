#include "runtime/packed_quantize.hh"

#include <algorithm>
#include <cstring>

#include "core/m2xfp.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace m2x {
namespace runtime {
namespace detail {

const QuantizeKernels &
quantizeKernels(SimdIsa isa)
{
    static const QuantizeKernels scalar{&quantizeActivationRowScalar,
                                        &encodeSgEmGroupScalar};
#ifdef M2X_HAVE_AVX2
    static const QuantizeKernels avx2{&quantizeActivationRowAvx2,
                                      &encodeSgEmGroupAvx2};
    if (isa == SimdIsa::Avx2)
        return avx2;
#endif
#ifdef M2X_HAVE_AVX512
    // The AVX-512 tier reuses the AVX2 activation encoder (a 16-lane
    // one was byte-identical but no faster: narrow stores dominate).
    static const QuantizeKernels avx512{&quantizeActivationRowAvx2,
                                        &encodeSgEmGroupAvx512};
    if (isa == SimdIsa::Avx512)
        return avx512;
#endif
    (void)isa;
    return scalar;
}

const SgEmScaleTable &
SgEmScaleTable::get()
{
    static const SgEmScaleTable table = [] {
        const SgEmQuantizer q = SgEmQuantizer::paperWeights();
        SgEmScaleTable t;
        for (unsigned c = 0; c < 255; ++c) {
            ScaleE8m0 s = ScaleE8m0::fromCode(static_cast<uint8_t>(c));
            for (unsigned m = 0; m < 4; ++m) {
                t.scale[c][m] =
                    q.subgroupScale(s, static_cast<uint8_t>(m));
                t.inv[c][m] = 1.0f / t.scale[c][m];
            }
        }
        return t;
    }();
    return table;
}

namespace {

/**
 * Encode one row of @p cols floats with @p encode_group: full groups
 * in place, the tail group zero-padded exactly like the functional
 * packer.
 */
void
encodeSgEmRow(SgEmEncodeGroupFn encode_group, const float *src,
              size_t cols, ScaleRule rule, bool adaptive,
              uint8_t *elems, uint8_t *scales, uint8_t *meta)
{
    constexpr size_t gs = PackedM2xfpTensor::groupSize;
    constexpr size_t bpg = PackedM2xfpTensor::bytesPerGroupElems;
    size_t g = 0;
    for (; (g + 1) * gs <= cols; ++g)
        encode_group(src + g * gs, rule, adaptive, elems + g * bpg,
                     scales + g, meta + g);
    if (g * gs < cols) {
        alignas(64) float padded[gs] = {};
        std::memcpy(padded, src + g * gs,
                    (cols - g * gs) * sizeof(float));
        encode_group(padded, rule, adaptive, elems + g * bpg,
                     scales + g, meta + g);
    }
}

} // anonymous namespace

size_t
packedQuantizeGrain(size_t rows, size_t lanes)
{
    if (rows == 0)
        return 1;
    // A serial pool runs inline anyway; one maximal chunk skips the
    // chunking overhead.
    if (lanes <= 1)
        return rows;
    // Target ~4 chunks per lane; the ceiling keeps tiny remainders
    // from exploding the chunk count while guaranteeing that any
    // range of at least 2*lanes rows yields at least 2*lanes chunks.
    return std::clamp<size_t>(ceilDiv(rows, 4 * lanes), 1, rows);
}

} // namespace detail
} // namespace runtime
} // namespace m2x

namespace m2x {

namespace {

// The Elem-EM fast path of the codec packers below: the per-ISA SIMD
// encoder with the paper activation config.
const ElemEmQuantizer &
paperActivationQuantizer()
{
    static const ElemEmQuantizer q = makeM2xfpActivationQuantizer();
    return q;
}

// The paper Sg-EM config: the weight role of every E8M0 codec and
// the activation role of sg_em.
const SgEmQuantizer &
paperWeightQuantizer()
{
    static const SgEmQuantizer q = SgEmQuantizer::paperWeights();
    return q;
}

/**
 * Run @p encode_row over rows [0, rows) — inline for a single row
 * (the decode-step shape, where pool dispatch would cost more than
 * the encode), else distributed over @p pool (null = global pool).
 */
template <typename EncodeRow>
void
forEachRow(size_t rows, runtime::ThreadPool *pool,
           const EncodeRow &encode_row)
{
    using namespace runtime;
    auto encode = [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r)
            encode_row(r);
    };
    if (rows == 1) {
        encode(0, 1);
        return;
    }
    ThreadPool &tp = pool ? *pool : ThreadPool::global();
    tp.parallelFor(0, rows, detail::packedQuantizeGrain(rows, tp.size()),
                   encode);
}

} // anonymous namespace

// Fast-path packActivations overloads declared in core/m2xfp_packed.hh
// but owned by the runtime library: core stays free of threading and
// dispatch concerns, while the packer keeps private access to the
// stream storage.

void
PackedM2xfpTensor::packActivations(const Matrix &m,
                                   const ElemEmQuantizer &q,
                                   runtime::ThreadPool *pool,
                                   runtime::SimdIsa isa,
                                   PackedM2xfpTensor &out)
{
    using namespace runtime;

    const ElemEmConfig &cfg = q.config();
    m2x_assert(cfg.groupSize == groupSize &&
               cfg.subgroupSize == subgroupSize && cfg.topK == 1 &&
               cfg.clampBias,
               "packed layout requires the paper config (g32/sg8 top1)");
    m2x_assert(!cfg.adaptiveScale,
               "fast-path packActivations requires the fixed-shared-"
               "scale activation config (adaptiveScale off)");
    m2x_assert(simdIsaAvailable(isa),
               "packActivations: ISA tier '%s' is not available on "
               "this machine", simdIsaName(isa));

    out.resizeShape(m.rows(), m.cols());
    size_t rows = m.rows();
    size_t gpr = out.groupsPerRow_;
    if (rows == 0 || gpr == 0)
        return;

    const detail::QuantizeKernels &kern = detail::quantizeKernels(isa);
    const float *src = m.data();
    size_t cols = m.cols();
    uint8_t *elems = out.elements_.data();
    uint8_t *scales = out.scales_.data();
    uint8_t *meta = out.meta_.data();
    forEachRow(rows, pool, [&](size_t r) {
        kern.quantizeActivationRow(src + r * cols, cols, cfg.rule,
                                   elems + r * gpr * bytesPerGroupElems,
                                   scales + r * gpr, meta + r * gpr);
    });
}

PackedM2xfpTensor
PackedM2xfpTensor::packActivations(const Matrix &m,
                                   const ElemEmQuantizer &q,
                                   runtime::ThreadPool *pool,
                                   runtime::SimdIsa isa)
{
    PackedM2xfpTensor t;
    packActivations(m, q, pool, isa, t);
    return t;
}

void
PackedM2xfpTensor::appendActivationRows(const float *rows,
                                        size_t n_rows,
                                        const ElemEmQuantizer &q,
                                        runtime::SimdIsa isa,
                                        runtime::ThreadPool *pool)
{
    using namespace runtime;

    const ElemEmConfig &cfg = q.config();
    m2x_assert(cfg.groupSize == groupSize &&
               cfg.subgroupSize == subgroupSize && cfg.topK == 1 &&
               cfg.clampBias && !cfg.adaptiveScale,
               "appendActivationRows requires the fixed-shared-scale "
               "paper activation config (g32/sg8 top1)");
    m2x_assert(simdIsaAvailable(isa),
               "appendActivationRows: ISA tier '%s' is not available "
               "on this machine", simdIsaName(isa));
    m2x_assert(cols_ > 0,
               "appendActivationRows on a shapeless tensor (create "
               "via emptyActivations)");
    if (n_rows == 0)
        return;

    size_t gpr = groupsPerRow_;
    size_t old_rows = rows_;
    rows_ += n_rows;
    elements_.resize(rows_ * gpr * bytesPerGroupElems);
    scales_.resize(rows_ * gpr);
    meta_.resize(rows_ * gpr);

    const detail::QuantizeKernels &kern = detail::quantizeKernels(isa);
    forEachRow(n_rows, pool, [&](size_t r) {
        size_t slot = (old_rows + r) * gpr;
        kern.quantizeActivationRow(
            rows + r * cols_, cols_, cfg.rule,
            elements_.data() + slot * bytesPerGroupElems,
            scales_.data() + slot, meta_.data() + slot);
    });
}


void
PackedM2xfpTensor::encodeRows(const float *src, size_t n_rows,
                              size_t first_row, const SgEmQuantizer *q,
                              RowEncodeFn functional_row,
                              runtime::ThreadPool *pool,
                              runtime::SimdIsa isa)
{
    using namespace runtime;
    size_t gpr = groupsPerRow_;
    size_t cols = cols_;
    unsigned geb = groupElemBytes_;
    uint8_t *elems = elements_.data() + first_row * gpr * geb;
    uint8_t *scales = scales_.data() + first_row * gpr;
    uint8_t *meta = meta_.data() + first_row * gpr;
    if (q) {
        const SgEmConfig &cfg = q->config();
        m2x_assert(cfg.groupSize == groupSize &&
                   cfg.subgroupSize == subgroupSize &&
                   cfg.metaBits == 2 && !cfg.extraExponent &&
                   codecGroupSize_ == groupSize,
                   "the Sg-EM encoder requires the paper layout "
                   "(g32/sg8 2b)");
        detail::SgEmEncodeGroupFn enc =
            detail::quantizeKernels(isa).encodeSgEmGroup;
        forEachRow(n_rows, pool, [&](size_t r) {
            detail::encodeSgEmRow(enc, src + r * cols, cols, cfg.rule,
                                  cfg.adaptiveScale,
                                  elems + r * gpr * geb,
                                  scales + r * gpr, meta + r * gpr);
        });
        return;
    }
    PackedCodec codec = codec_;
    forEachRow(n_rows, pool, [&](size_t r) {
        functional_row(codec, src + r * cols, cols,
                       elems + r * gpr * geb, scales + r * gpr,
                       meta + r * gpr);
    });
}

void
PackedM2xfpTensor::packActivationsCodec(const Matrix &m,
                                        PackedCodec codec,
                                        runtime::ThreadPool *pool,
                                        runtime::SimdIsa isa,
                                        PackedM2xfpTensor &out)
{
    using namespace runtime;

    out.setCodec(codec);
    if (codec == PackedCodec::ElemEm) {
        packActivations(m, paperActivationQuantizer(), pool, isa, out);
        return;
    }
    m2x_assert(simdIsaAvailable(isa),
               "packActivationsCodec: ISA tier '%s' is not available "
               "on this machine", simdIsaName(isa));

    out.resizeShape(m.rows(), m.cols());
    if (m.rows() == 0 || out.groupsPerRow_ == 0)
        return;
    // sg_em activations run the per-ISA Sg-EM encoder; Elem-EE and
    // M2-NVFP4 the functional row encoder (ISA-independent, hence
    // byte-exact on every tier by construction). Both are byte-exact
    // against packActivationsCodec(m, codec).
    out.encodeRows(m.data(), m.rows(), 0,
                   codec == PackedCodec::SgEm ? &paperWeightQuantizer()
                                              : nullptr,
                   &packActivationRowCodec, pool, isa);
}

PackedM2xfpTensor
PackedM2xfpTensor::packActivationsCodec(const Matrix &m,
                                        PackedCodec codec,
                                        runtime::ThreadPool *pool,
                                        runtime::SimdIsa isa)
{
    PackedM2xfpTensor t;
    packActivationsCodec(m, codec, pool, isa, t);
    return t;
}

void
PackedM2xfpTensor::appendActivationRowsCodec(const float *rows,
                                             size_t n_rows,
                                             runtime::SimdIsa isa,
                                             runtime::ThreadPool *pool)
{
    using namespace runtime;

    if (codec_ == PackedCodec::ElemEm) {
        appendActivationRows(rows, n_rows, paperActivationQuantizer(),
                             isa, pool);
        return;
    }
    m2x_assert(simdIsaAvailable(isa),
               "appendActivationRowsCodec: ISA tier '%s' is not "
               "available on this machine", simdIsaName(isa));
    m2x_assert(cols_ > 0,
               "appendActivationRowsCodec on a shapeless tensor "
               "(create via emptyActivationsCodec)");
    if (n_rows == 0)
        return;

    size_t gpr = groupsPerRow_;
    size_t old_rows = rows_;
    rows_ += n_rows;
    elements_.resize(rows_ * gpr * groupElemBytes_);
    scales_.resize(rows_ * gpr);
    meta_.resize(rows_ * gpr);
    encodeRows(rows, n_rows, old_rows,
               codec_ == PackedCodec::SgEm ? &paperWeightQuantizer()
                                           : nullptr,
               &packActivationRowCodec, pool, isa);
}

PackedM2xfpTensor
PackedM2xfpTensor::packWeights(const Matrix &m, const SgEmQuantizer &q,
                               runtime::ThreadPool *pool,
                               runtime::SimdIsa isa)
{
    using namespace runtime;

    m2x_assert(simdIsaAvailable(isa),
               "packWeights: ISA tier '%s' is not available on this "
               "machine", simdIsaName(isa));
    PackedM2xfpTensor t;
    t.resizeShape(m.rows(), m.cols());
    if (m.rows() > 0 && t.groupsPerRow_ > 0)
        t.encodeRows(m.data(), m.rows(), 0, &q, nullptr, pool, isa);
    return t;
}

PackedM2xfpTensor
PackedM2xfpTensor::packWeightsCodec(const Matrix &m, PackedCodec codec,
                                    runtime::ThreadPool *pool,
                                    runtime::SimdIsa isa)
{
    using namespace runtime;

    m2x_assert(simdIsaAvailable(isa),
               "packWeightsCodec: ISA tier '%s' is not available on "
               "this machine", simdIsaName(isa));
    PackedM2xfpTensor t;
    t.setCodec(codec);
    t.resizeShape(m.rows(), m.cols());
    if (m.rows() == 0 || t.groupsPerRow_ == 0)
        return t;
    // Every E8M0 codec's weight role is the paper Sg-EM codec (see
    // core/packed_formats.cc); M2-NVFP4's FP8-scaled g16 weights keep
    // the functional row encoder.
    t.encodeRows(m.data(), m.rows(), 0,
                 packedCodecInfo(codec).scaleIsFp8
                     ? nullptr
                     : &paperWeightQuantizer(),
                 &packWeightRowCodec, pool, isa);
    return t;
}

} // namespace m2x
