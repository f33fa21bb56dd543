#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>

#include "common/check.h"

namespace sinan {

void
PercentileDigest::Seal()
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
PercentileDigest::SortedQuantile(const std::vector<double>& sorted,
                                 double p)
{
    if (p <= 0.0)
        return sorted.front();
    if (p >= 1.0)
        return sorted.back();
    const double pos = p * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    if (lo + 1 >= sorted.size())
        return sorted.back();
    return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

double
PercentileDigest::Quantile(double p) const
{
    if (samples_.empty())
        return 0.0;
    SINAN_CHECK_MSG(sorted_,
                    "PercentileDigest: Seal() before querying an "
                    "interval's quantiles");
    return SortedQuantile(samples_, p);
}

std::vector<double>
PercentileDigest::Quantiles(const std::vector<double>& ps) const
{
    std::vector<double> out;
    out.reserve(ps.size());
    for (double p : ps)
        out.push_back(Quantile(p));
    return out;
}

double
PercentileDigest::Mean() const
{
    if (samples_.empty())
        return 0.0;
    double s = 0.0;
    for (double v : samples_)
        s += v;
    return s / static_cast<double>(samples_.size());
}

double
PercentileDigest::Max() const
{
    if (samples_.empty())
        return 0.0;
    SINAN_CHECK_MSG(sorted_,
                    "PercentileDigest: Seal() before querying an "
                    "interval's maximum");
    return samples_.back();
}

void
PercentileDigest::Reset()
{
    samples_.clear();
    sorted_ = true;
}

void
RunningSummary::Add(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    sum_ += v;
    ++count_;
}

void
RunningSummary::Reset()
{
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
    count_ = 0;
}

double
VectorQuantile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    if (p <= 0.0)
        return values.front();
    if (p >= 1.0)
        return values.back();
    const double pos = p * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    if (lo + 1 >= values.size())
        return values.back();
    return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

double
Rmse(const std::vector<double>& a, const std::vector<double>& b)
{
    SINAN_CHECK_EQ(a.size(), b.size());
    if (a.empty())
        return 0.0;
    double acc = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        acc += d * d;
    }
    return std::sqrt(acc / static_cast<double>(a.size()));
}

double
Mean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    double s = 0.0;
    for (double v : values)
        s += v;
    return s / static_cast<double>(values.size());
}

} // namespace sinan
