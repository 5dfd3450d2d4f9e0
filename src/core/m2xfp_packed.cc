#include "core/m2xfp_packed.hh"

#include <algorithm>

#include "util/bits.hh"
#include "util/logging.hh"

namespace m2x {

void
PackedM2xfpTensor::setCodec(PackedCodec codec)
{
    codec_ = codec;
    const PackedCodecInfo &info = packedCodecInfo(codec);
    codecGroupSize_ = info.groupSize;
    groupElemBytes_ = info.bytesPerGroupElems;
}

void
PackedM2xfpTensor::reserveShape(size_t rows, size_t cols)
{
    rows_ = rows;
    cols_ = cols;
    groupsPerRow_ = ceilDiv(cols, codecGroupSize_);
    elements_.assign(rows * groupsPerRow_ * groupElemBytes_, 0);
    scales_.assign(rows * groupsPerRow_, 0);
    meta_.assign(rows * groupsPerRow_, 0);
}

void
PackedM2xfpTensor::resizeShape(size_t rows, size_t cols)
{
    rows_ = rows;
    cols_ = cols;
    groupsPerRow_ = ceilDiv(cols, codecGroupSize_);
    size_t n_groups = rows * groupsPerRow_;
    elements_.resize(n_groups * groupElemBytes_);
    scales_.resize(n_groups);
    meta_.resize(n_groups);
}

void
PackedM2xfpTensor::setElementCode(size_t r, size_t c, uint8_t code)
{
    size_t group = c / codecGroupSize_;
    size_t in_group = c % codecGroupSize_;
    size_t byte = (r * groupsPerRow_ + group) * groupElemBytes_ +
                  in_group / 2;
    if (in_group % 2 == 0)
        elements_[byte] = static_cast<uint8_t>(
            (elements_[byte] & 0xf0u) | (code & 0x0fu));
    else
        elements_[byte] = static_cast<uint8_t>(
            (elements_[byte] & 0x0fu) | ((code & 0x0fu) << 4));
}

uint8_t
PackedM2xfpTensor::elementCode(size_t r, size_t c) const
{
    size_t group = c / codecGroupSize_;
    size_t in_group = c % codecGroupSize_;
    size_t byte = (r * groupsPerRow_ + group) * groupElemBytes_ +
                  in_group / 2;
    uint8_t b = elements_[byte];
    return (in_group % 2 == 0) ? (b & 0x0fu) : (b >> 4);
}

uint8_t
PackedM2xfpTensor::subgroupMeta(size_t r, size_t group,
                                size_t sub) const
{
    uint8_t b = meta_[r * groupsPerRow_ + group];
    return static_cast<uint8_t>((b >> (2 * sub)) & 0x3u);
}

double
PackedM2xfpTensor::bitsPerElement() const
{
    if (rows_ == 0 || cols_ == 0)
        return 0.0;
    return 8.0 * static_cast<double>(totalBytes()) /
           (static_cast<double>(rows_) * static_cast<double>(cols_));
}

PackedM2xfpTensor
PackedM2xfpTensor::fromRawStreams(size_t rows, size_t cols,
                                  std::vector<uint8_t> elements,
                                  std::vector<uint8_t> scales,
                                  std::vector<uint8_t> meta,
                                  PackedCodec codec)
{
    PackedM2xfpTensor t;
    t.setCodec(codec);
    t.rows_ = rows;
    t.cols_ = cols;
    t.groupsPerRow_ = ceilDiv(cols, t.codecGroupSize_);
    size_t n_groups = rows * t.groupsPerRow_;
    m2x_assert(elements.size() == n_groups * t.groupElemBytes_,
               "element stream: %zu bytes, want %zu",
               elements.size(), n_groups * t.groupElemBytes_);
    m2x_assert(scales.size() == n_groups,
               "scale stream: %zu bytes, want %zu", scales.size(),
               n_groups);
    m2x_assert(meta.size() == n_groups,
               "metadata stream: %zu bytes, want %zu", meta.size(),
               n_groups);
    t.elements_ = std::move(elements);
    t.scales_ = std::move(scales);
    t.meta_ = std::move(meta);
    return t;
}

PackedM2xfpTensor
PackedM2xfpTensor::emptyActivations(size_t cols,
                                    const ElemEmQuantizer &q)
{
    const ElemEmConfig &cfg = q.config();
    m2x_assert(cfg.groupSize == groupSize &&
               cfg.subgroupSize == subgroupSize && cfg.topK == 1 &&
               cfg.clampBias,
               "packed layout requires the paper config (g32/sg8 top1)");
    m2x_assert(cols > 0, "empty activation tensor needs cols > 0");
    PackedM2xfpTensor t;
    t.rows_ = 0;
    t.cols_ = cols;
    t.groupsPerRow_ = ceilDiv(cols, groupSize);
    return t;
}

void
PackedM2xfpTensor::reserveActivationRows(size_t rows)
{
    m2x_assert(cols_ > 0, "reserveActivationRows on a shapeless "
               "tensor (create via emptyActivations)");
    elements_.reserve(rows * groupsPerRow_ * groupElemBytes_);
    scales_.reserve(rows * groupsPerRow_);
    meta_.reserve(rows * groupsPerRow_);
}

void
PackedM2xfpTensor::clearActivationRows()
{
    rows_ = 0;
    // clear() keeps vector capacity, so the next append round
    // re-fills the recycled streams without reallocating.
    elements_.clear();
    scales_.clear();
    meta_.clear();
}

PackedM2xfpTensor
PackedM2xfpTensor::packActivations(const Matrix &m,
                                   const ElemEmQuantizer &q)
{
    const ElemEmConfig &cfg = q.config();
    m2x_assert(cfg.groupSize == groupSize &&
               cfg.subgroupSize == subgroupSize && cfg.topK == 1 &&
               cfg.clampBias,
               "packed layout requires the paper config (g32/sg8 top1)");

    PackedM2xfpTensor t;
    t.reserveShape(m.rows(), m.cols());
    std::vector<float> padded(groupSize);
    for (size_t r = 0; r < m.rows(); ++r) {
        std::span<const float> row = m.row(r);
        for (size_t g_idx = 0; g_idx < t.groupsPerRow_; ++g_idx) {
            size_t base = g_idx * groupSize;
            size_t len = std::min<size_t>(groupSize,
                                          m.cols() - base);
            std::fill(padded.begin(), padded.end(), 0.0f);
            std::copy(row.begin() + base, row.begin() + base + len,
                      padded.begin());
            ElemEmGroup g = q.encodeGroup(padded);
            size_t slot = r * t.groupsPerRow_ + g_idx;
            t.scales_[slot] = g.scale.code();
            uint8_t mb = 0;
            for (size_t s = 0; s < g.meta.size() && s < 4; ++s)
                mb = static_cast<uint8_t>(mb |
                    ((g.meta[s] & 0x3u) << (2 * s)));
            t.meta_[slot] = mb;
            for (size_t i = 0; i < groupSize; ++i)
                t.setElementCode(r, base + i, g.fp4Codes[i]);
        }
    }
    return t;
}

PackedM2xfpTensor
PackedM2xfpTensor::packWeights(const Matrix &m, const SgEmQuantizer &q)
{
    const SgEmConfig &cfg = q.config();
    m2x_assert(cfg.groupSize == groupSize &&
               cfg.subgroupSize == subgroupSize && cfg.metaBits == 2 &&
               !cfg.extraExponent,
               "packed layout requires the paper config (g32/sg8 2b)");

    PackedM2xfpTensor t;
    t.reserveShape(m.rows(), m.cols());
    std::vector<float> padded(groupSize);
    for (size_t r = 0; r < m.rows(); ++r) {
        std::span<const float> row = m.row(r);
        for (size_t g_idx = 0; g_idx < t.groupsPerRow_; ++g_idx) {
            size_t base = g_idx * groupSize;
            size_t len = std::min<size_t>(groupSize,
                                          m.cols() - base);
            std::fill(padded.begin(), padded.end(), 0.0f);
            std::copy(row.begin() + base, row.begin() + base + len,
                      padded.begin());
            SgEmGroup g = q.encodeGroup(padded);
            size_t slot = r * t.groupsPerRow_ + g_idx;
            t.scales_[slot] = g.scale.code();
            uint8_t mb = 0;
            for (size_t s = 0; s < g.sgMeta.size() && s < 4; ++s)
                mb = static_cast<uint8_t>(mb |
                    ((g.sgMeta[s] & 0x3u) << (2 * s)));
            t.meta_[slot] = mb;
            for (size_t i = 0; i < groupSize; ++i)
                t.setElementCode(r, base + i, g.fp4Codes[i]);
        }
    }
    return t;
}

Matrix
PackedM2xfpTensor::unpackActivations(const ElemEmQuantizer &q) const
{
    Matrix out(rows_, cols_);
    std::vector<float> dec(groupSize);
    for (size_t r = 0; r < rows_; ++r) {
        for (size_t g_idx = 0; g_idx < groupsPerRow_; ++g_idx) {
            ElemEmGroup g;
            size_t slot = r * groupsPerRow_ + g_idx;
            g.scale = ScaleE8m0::fromCode(scales_[slot]);
            g.fp4Codes.resize(groupSize);
            size_t base = g_idx * groupSize;
            for (size_t i = 0; i < groupSize; ++i)
                g.fp4Codes[i] = elementCode(r, base + i);
            g.meta.resize(groupSize / subgroupSize);
            for (size_t s = 0; s < g.meta.size(); ++s)
                g.meta[s] = subgroupMeta(r, g_idx, s);
            q.decodeGroup(g, dec);
            size_t len = std::min<size_t>(groupSize, cols_ - base);
            for (size_t i = 0; i < len; ++i)
                out(r, base + i) = dec[i];
        }
    }
    return out;
}

Matrix
PackedM2xfpTensor::unpackWeights(const SgEmQuantizer &q) const
{
    Matrix out(rows_, cols_);
    std::vector<float> dec(groupSize);
    for (size_t r = 0; r < rows_; ++r) {
        for (size_t g_idx = 0; g_idx < groupsPerRow_; ++g_idx) {
            SgEmGroup g;
            size_t slot = r * groupsPerRow_ + g_idx;
            g.scale = ScaleE8m0::fromCode(scales_[slot]);
            g.fp4Codes.resize(groupSize);
            size_t base = g_idx * groupSize;
            for (size_t i = 0; i < groupSize; ++i)
                g.fp4Codes[i] = elementCode(r, base + i);
            g.sgMeta.resize(groupSize / subgroupSize);
            for (size_t s = 0; s < g.sgMeta.size(); ++s)
                g.sgMeta[s] = subgroupMeta(r, g_idx, s);
            q.decodeGroup(g, dec);
            size_t len = std::min<size_t>(groupSize, cols_ - base);
            for (size_t i = 0; i < len; ++i)
                out(r, base + i) = dec[i];
        }
    }
    return out;
}

} // namespace m2x
