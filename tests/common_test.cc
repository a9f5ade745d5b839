/** @file Unit and property tests for src/common. */

#include <cmath>
#include <cstdint>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/common/histogram.h"
#include "src/common/logging.h"
#include "src/common/parse.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/obs/json.h"
#include "src/obs/registry.h"

namespace camo {
namespace {

// ---------------------------------------------------- external numbers

TEST(Parse, ConvertersAcceptOnlyPlainInRangeNumbers)
{
    constexpr std::uint64_t kMax64 = ~std::uint64_t{0};
    const std::optional<std::uint64_t> kNo;
    struct TextCase
    {
        const char *text;
        std::uint64_t max;
        int base;
        std::optional<std::uint64_t> want;
    };
    const TextCase text[] = {
        {"0", kMax64, 10, 0},
        {"42", kMax64, 10, 42},
        {"18446744073709551615", kMax64, 10, kMax64},
        {"4294967295", 4294967295u, 10, 4294967295u},
        {"4294967296", 4294967295u, 10, kNo},
        {"18446744073709551616", kMax64, 10, kNo},
        {"", kMax64, 10, kNo},
        {"-1", kMax64, 10, kNo},
        {" -5", kMax64, 10, kNo},
        {" 5", kMax64, 10, kNo},
        {"5 ", kMax64, 10, kNo},
        {"+7", kMax64, 10, kNo},
        {"1e3", kMax64, 10, kNo},
        {"12x", kMax64, 10, kNo},
        {"nan", kMax64, 10, kNo},
        {"inf", kMax64, 10, kNo},
        {"0x1F", kMax64, 10, kNo},
        {"0x1F", kMax64, 16, 0x1F},
        {"0X1f", kMax64, 16, 0x1F},
        {"1F", kMax64, 16, 0x1F},
        {"0x", kMax64, 16, kNo},
        {"-0x1F", kMax64, 16, kNo},
        {"0xFFFFFFFFFFFFFFFF", kMax64, 16, kMax64},
        {"0x10000000000000000", kMax64, 16, kNo},
        {"1FFFFFFFF", 0xFFFFFFFF, 16, kNo},
    };
    for (const TextCase &c : text) {
        EXPECT_EQ(parseUnsigned(c.text, c.max, c.base), c.want)
            << "'" << c.text << "' base " << c.base << " max " << c.max;
    }

    struct RealCase
    {
        const char *text;
        std::optional<double> want;
    };
    const RealCase reals[] = {
        {"0", 0.0},      {"0.25", 0.25},  {"1", 1.0},
        {"1e-3", 1e-3},  {"1.5", std::nullopt},
        {"-0.1", std::nullopt}, {"nan", std::nullopt},
        {"inf", std::nullopt},  {"", std::nullopt},
        {" 0.5", std::nullopt}, {"+0.5", std::nullopt},
        {"0.5x", std::nullopt},
    };
    for (const RealCase &c : reals)
        EXPECT_EQ(parseReal(c.text, 0.0, 1.0), c.want) << c.text;

    struct JsonCase
    {
        const char *json;
        std::uint64_t max;
        std::optional<std::uint64_t> want;
    };
    const JsonCase json[] = {
        {"0", obs::json::kMaxExactInteger, 0},
        {"7", obs::json::kMaxExactInteger, 7},
        {"9007199254740991", obs::json::kMaxExactInteger,
         obs::json::kMaxExactInteger},
        {"9007199254740991", kMax64, obs::json::kMaxExactInteger},
        {"9007199254740992", kMax64, kNo},
        {"9007199254740993", kMax64, kNo},
        {"255", 255, 255},
        {"256", 255, kNo},
        {"1.5", kMax64, kNo},
        {"-1", kMax64, kNo},
        {"1e30", kMax64, kNo},
        {"1e999", kMax64, kNo},
        {"\"7\"", kMax64, kNo},
        {"true", kMax64, kNo},
        {"null", kMax64, kNo},
    };
    for (const JsonCase &c : json) {
        EXPECT_EQ(obs::json::toUnsigned(obs::json::parse(c.json), c.max),
                  c.want)
            << c.json << " max " << c.max;
    }
}

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL,
                                1ULL << 40}) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(rng.below(bound), bound) << "bound=" << bound;
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.range(5, 8);
        ASSERT_GE(v, 5u);
        ASSERT_LE(v, 8u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u) << "all values in [5,8] should appear";
}

TEST(Rng, UniformIsInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, BurstLengthBounds)
{
    Rng rng(17);
    for (int i = 0; i < 500; ++i) {
        const auto len = rng.burstLength(0.7, 16);
        ASSERT_GE(len, 1u);
        ASSERT_LE(len, 16u);
    }
    // p=0 always yields length 1.
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.burstLength(0.0, 16), 1u);
}

// ---------------------------------------------------------- Histogram

TEST(Histogram, BinOfRespectsEdges)
{
    Histogram h({0, 10, 100, 1000});
    EXPECT_EQ(h.binOf(0), 0u);
    EXPECT_EQ(h.binOf(9), 0u);
    EXPECT_EQ(h.binOf(10), 1u);
    EXPECT_EQ(h.binOf(99), 1u);
    EXPECT_EQ(h.binOf(100), 2u);
    EXPECT_EQ(h.binOf(1000), 3u);
    EXPECT_EQ(h.binOf(~0ULL), 3u);
}

TEST(Histogram, CountsAndPmf)
{
    Histogram h({0, 10});
    h.add(1);
    h.add(2);
    h.add(3);
    h.add(50);
    EXPECT_EQ(h.totalCount(), 4u);
    EXPECT_EQ(h.count(0), 3u);
    EXPECT_EQ(h.count(1), 1u);
    const auto p = h.pmf();
    EXPECT_DOUBLE_EQ(p[0], 0.75);
    EXPECT_DOUBLE_EQ(p[1], 0.25);
}

TEST(Histogram, WeightedAdd)
{
    Histogram h({0, 10});
    h.add(5, 7);
    EXPECT_EQ(h.count(0), 7u);
    EXPECT_EQ(h.totalCount(), 7u);
}

TEST(Histogram, EntropyUniformIsLogN)
{
    Histogram h({0, 1, 2, 3});
    for (std::uint64_t v : {0u, 1u, 2u, 3u})
        h.add(v, 100);
    EXPECT_NEAR(h.entropyBits(), 2.0, 1e-9);
}

TEST(Histogram, EntropyDegenerateIsZero)
{
    Histogram h({0, 1});
    h.add(0, 1000);
    EXPECT_DOUBLE_EQ(h.entropyBits(), 0.0);
    Histogram empty({0, 1});
    EXPECT_DOUBLE_EQ(empty.entropyBits(), 0.0);
}

TEST(Histogram, TotalVariationDistance)
{
    Histogram a({0, 1}), b({0, 1});
    a.add(0, 100);
    b.add(1, 100);
    EXPECT_DOUBLE_EQ(a.totalVariationDistance(b), 1.0);
    EXPECT_DOUBLE_EQ(a.totalVariationDistance(a), 0.0);
}

TEST(Histogram, GeometricEdgesStrictlyIncrease)
{
    const auto h = Histogram::makeGeometric(16, 2, 1.3);
    ASSERT_EQ(h.numBins(), 16u);
    for (std::size_t i = 1; i < h.numBins(); ++i)
        ASSERT_GT(h.lowerEdge(i), h.lowerEdge(i - 1));
    EXPECT_EQ(h.lowerEdge(0), 0u);
}

TEST(Histogram, ClearRetainsEdges)
{
    Histogram h({0, 5});
    h.add(7);
    h.clear();
    EXPECT_EQ(h.totalCount(), 0u);
    EXPECT_EQ(h.binOf(7), 1u);
}

TEST(Histogram, AsciiRendersEveryBin)
{
    Histogram h({0, 10, 20});
    h.add(1, 10);
    const auto s = h.toAscii(10);
    EXPECT_NE(s.find("[0, 10)"), std::string::npos);
    EXPECT_NE(s.find("inf)"), std::string::npos);
}

/** Property: pmf always sums to 1 (or 0 when empty). */
class HistogramPmfProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(HistogramPmfProperty, PmfSumsToOne)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const std::size_t nbins = 2 + rng.below(20);
    auto h = Histogram::makeGeometric(nbins, 1 + rng.below(10),
                                      1.1 + rng.uniform());
    const std::size_t samples = 1 + rng.below(500);
    for (std::size_t i = 0; i < samples; ++i)
        h.add(rng.below(100000));
    double sum = 0;
    for (const double p : h.pmf())
        sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_EQ(h.totalCount(), samples);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramPmfProperty,
                         ::testing::Range(0, 12));

// -------------------------------------------------------------- Stats

TEST(Stats, CountersAccumulate)
{
    StatGroup g;
    g.inc("a");
    g.inc("a", 4);
    EXPECT_EQ(g.counter("a"), 5u);
    EXPECT_EQ(g.counter("missing"), 0u);
    EXPECT_EQ(g.counters().count("a"), 1u);
    EXPECT_EQ(g.counters().count("missing"), 0u);
}

TEST(Stats, ScalarTracksMinMaxMean)
{
    StatGroup g;
    g.sample("x", 1.0);
    g.sample("x", 3.0);
    g.sample("x", 2.0);
    const Scalar &s = g.scalar("x");
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

TEST(Stats, EmptyScalarIsZero)
{
    StatGroup g;
    const Scalar &s = g.scalar("nope");
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Stats, ClearResets)
{
    StatGroup g;
    g.inc("a");
    g.sample("x", 1.0);
    g.clear();
    EXPECT_EQ(g.counter("a"), 0u);
    EXPECT_EQ(g.scalar("x").count(), 0u);
}

/** A group's stats as the shipped dump writes them: the registry's
 *  JSON, as in camosim --stats-json. */
std::string
statsDump(const StatGroup &g)
{
    obs::StatRegistry reg;
    reg.add("mc", &g);
    return reg.toJson().dump();
}

TEST(Stats, DumpContainsNames)
{
    StatGroup g;
    g.inc("reads", 3);
    g.sample("lat", 5.5);
    const auto s = statsDump(g);
    EXPECT_NE(s.find("\"mc\""), std::string::npos);
    EXPECT_NE(s.find("\"reads\":3"), std::string::npos);
    EXPECT_NE(s.find("\"lat\""), std::string::npos);
}

TEST(Stats, LiteralNamesSurviveClearAndCopy)
{
    StatGroup g;
    g.inc("a", 2);
    g.sample("x", 1.0);
    g.clear();
    EXPECT_EQ(g.counters().count("a"), 0u) << "clear() drops the key";
    EXPECT_FALSE(g.hasScalar("x"));
    g.inc("a");
    g.sample("x", 3.0);
    EXPECT_EQ(g.counters().count("a"), 1u)
        << "the next inc re-creates it";
    EXPECT_EQ(g.counter("a"), 1u);
    EXPECT_EQ(g.scalar("x").count(), 1u);

    // A copy resolves names into its own maps.
    StatGroup copy = g;
    copy.inc("a", 5);
    g.inc("a");
    EXPECT_EQ(g.counter("a"), 2u);
    EXPECT_EQ(copy.counter("a"), 6u);
    StatGroup assigned;
    assigned.inc("b");
    assigned = g;
    assigned.inc("a", 10);
    EXPECT_EQ(assigned.counters().count("b"), 0u);
    EXPECT_EQ(assigned.counter("a"), 12u);
    EXPECT_EQ(g.counter("a"), 2u);
    StatGroup moved = std::move(copy);
    moved.inc("a");
    EXPECT_EQ(moved.counter("a"), 7u);

    // Enough names to grow the lookup cache past its first size.
    constexpr StatName kNames[] = {
        "n00", "n01", "n02", "n03", "n04", "n05", "n06", "n07", "n08",
        "n09", "n10", "n11", "n12", "n13", "n14", "n15", "n16", "n17",
        "n18", "n19", "n20", "n21", "n22", "n23", "n24", "n25"};
    for (int round = 0; round < 3; ++round) {
        for (const StatName name : kNames)
            g.inc(name);
    }
    EXPECT_EQ(g.counters().size(), std::size(kNames) + 1);
    for (const StatName name : kNames)
        EXPECT_EQ(g.counter(name.c_str()), 3u) << name.c_str();
}

TEST(Stats, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({3.0}), 3.0, 1e-12);
}

TEST(StatsDeathTest, GeomeanReportsOffendingValue)
{
    EXPECT_DEATH(geomean({2.0, -1.5}), "-1.5");
    EXPECT_DEATH(geomean({0.0}), "positive");
}

TEST(Stats, ScalarWelfordVariance)
{
    Scalar s;
    for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.sample(v);
    // Textbook population variance of this set is 4.
    EXPECT_NEAR(s.variance(), 4.0, 1e-12);
    EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
}

TEST(Stats, ScalarVarianceNeedsTwoSamples)
{
    Scalar s;
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    s.sample(3.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, ScalarClearResetsEverything)
{
    Scalar s;
    s.sample(1.0);
    s.sample(9.0);
    s.clear();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    // And it samples correctly again afterwards.
    s.sample(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 5.0);
}

TEST(Stats, MissingNameLookupsAreInert)
{
    StatGroup g;
    // Lookups for unregistered names return zero values and must not
    // create entries as a side effect.
    EXPECT_EQ(g.counter("ghost"), 0u);
    EXPECT_EQ(g.scalar("ghost").count(), 0u);
    EXPECT_FALSE(g.hasScalar("ghost"));
    EXPECT_TRUE(g.counters().empty());
    EXPECT_TRUE(g.scalars().empty());
}

TEST(Stats, DumpFormatsScalarFields)
{
    StatGroup g;
    g.sample("lat", 2.0);
    g.sample("lat", 4.0);
    const auto s = statsDump(g);
    EXPECT_NE(s.find("\"lat\":{\"count\":2,\"max\":4,\"mean\":3,"
                     "\"min\":2,\"stddev\":1,\"sum\":6}"),
              std::string::npos)
        << s;
}

// -------------------------------------------------------- ClockDivider

TEST(ClockDivider, ExactRatioLongRun)
{
    // 18/5: DDR3-1333 under a 2.4 GHz core.
    ClockDivider div(18, 5);
    const std::uint64_t cpu_ticks = 1800000;
    std::uint64_t derived = 0;
    for (std::uint64_t i = 0; i < cpu_ticks; ++i)
        derived += div.tick();
    EXPECT_EQ(derived, cpu_ticks * 5 / 18);
    EXPECT_EQ(div.derivedTicks(), derived);
}

TEST(ClockDivider, UnityRatioTicksEveryCycle)
{
    ClockDivider div(1, 1);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(div.tick());
}

/** Property: for random ratios, drift never exceeds one tick. */
class DividerProperty
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(DividerProperty, NoDrift)
{
    const auto [num, den] = GetParam();
    ClockDivider div(static_cast<std::uint64_t>(num),
                     static_cast<std::uint64_t>(den));
    for (std::uint64_t t = 1; t <= 100000; ++t) {
        div.tick();
        const double expect = static_cast<double>(t) * den / num;
        EXPECT_LE(std::abs(static_cast<double>(div.derivedTicks()) -
                           expect),
                  1.0)
            << "at t=" << t;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, DividerProperty,
    ::testing::Values(std::make_pair(18, 5), std::make_pair(3, 1),
                      std::make_pair(7, 2), std::make_pair(10, 3),
                      std::make_pair(5, 4)));

// ------------------------------------------------------------- Logging

TEST(Logging, VerboseToggle)
{
    setVerbose(false);
    EXPECT_FALSE(verbose());
    setVerbose(true);
    EXPECT_TRUE(verbose());
}

TEST(Logging, WarnNamesSourceRelativeToTree)
{
    // The location names the file as the tree does, never the
    // checkout's absolute path, so stderr matches across checkouts.
    setVerbose(true);
    ::testing::internal::CaptureStderr();
    camo_warn("where am I");
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("warn: where am I (tests/common_test.cc:"),
              std::string::npos)
        << err;
}

TEST(LoggingDeathTest, AssertAborts)
{
    EXPECT_DEATH(camo_assert(false, "boom"), "assertion failed");
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(camo_panic("bad state ", 42), "bad state 42");
}

TEST(LoggingDeathTest, FatalExitsCleanly)
{
    EXPECT_EXIT(camo_fatal("user error"),
                ::testing::ExitedWithCode(1), "user error");
}

} // namespace
} // namespace camo
