/**
 * @file test_util.cpp
 * Unit tests for the util module: logging, arrays, RNG, statistics,
 * tables and the input-deck parser.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "util/array4.hpp"
#include "util/logging.hpp"
#include "util/parameter_input.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace vibe {
namespace {

// --- logging ---

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config: ", 42), FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("invariant broken"), PanicError);
}

TEST(Logging, FatalMessageContainsPieces)
{
    try {
        fatal("value=", 7, " name=", "x");
        FAIL() << "fatal did not throw";
    } catch (const FatalError& e) {
        EXPECT_STREQ(e.what(), "value=7 name=x");
    }
}

TEST(Logging, RequirePassesOnTrue)
{
    EXPECT_NO_THROW(require(true, "never"));
}

TEST(Logging, RequireThrowsOnFalse)
{
    EXPECT_THROW(require(false, "boom"), PanicError);
}

// --- Array4 ---

TEST(Array4, ZeroInitialized)
{
    RealArray4 a(2, 3, 4, 5);
    EXPECT_EQ(a.size(), 2u * 3u * 4u * 5u);
    EXPECT_DOUBLE_EQ(a(1, 2, 3, 4), 0.0);
}

TEST(Array4, RoundTripAllIndices)
{
    RealArray4 a(2, 2, 3, 4);
    double v = 0;
    for (int n = 0; n < 2; ++n)
        for (int k = 0; k < 2; ++k)
            for (int j = 0; j < 3; ++j)
                for (int i = 0; i < 4; ++i)
                    a(n, k, j, i) = v++;
    v = 0;
    for (int n = 0; n < 2; ++n)
        for (int k = 0; k < 2; ++k)
            for (int j = 0; j < 3; ++j)
                for (int i = 0; i < 4; ++i)
                    EXPECT_DOUBLE_EQ(a(n, k, j, i), v++);
}

TEST(Array4, InnermostIndexIsContiguous)
{
    RealArray4 a(1, 1, 1, 8);
    for (int i = 0; i < 8; ++i)
        a(0, 0, 0, i) = i;
    const double* p = a.data();
    for (int i = 0; i < 8; ++i)
        EXPECT_DOUBLE_EQ(p[i], i);
}

TEST(Array4, SliceSharesStorage)
{
    RealArray4 a(3, 2, 2, 2);
    auto s = a.slice(1);
    s(1, 1, 1) = 42.0;
    EXPECT_DOUBLE_EQ(a(1, 1, 1, 1), 42.0);
    EXPECT_EQ(s.size(), 8u);
}

TEST(Array4, SizeBytes)
{
    RealArray4 a(2, 2, 2, 2);
    EXPECT_EQ(a.sizeBytes(), 16u * sizeof(double));
}

TEST(Array4, FillSetsEveryElement)
{
    RealArray4 a(1, 2, 2, 2);
    a.fill(3.5);
    for (int k = 0; k < 2; ++k)
        for (int j = 0; j < 2; ++j)
            for (int i = 0; i < 2; ++i)
                EXPECT_DOUBLE_EQ(a(0, k, j, i), 3.5);
}

TEST(Array4, EmptyDefault)
{
    RealArray4 a;
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.size(), 0u);
}

// --- Rng ---

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int differing = 0;
    for (int i = 0; i < 16; ++i)
        if (a.next() != b.next())
            ++differing;
    EXPECT_GT(differing, 0);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, UniformIntWithinBound)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.uniformInt(17), 17u);
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(11);
    bool seen[8] = {};
    for (int i = 0; i < 1000; ++i)
        seen[rng.uniformInt(8)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        const double x = rng.uniform(-2.0, 5.0);
        EXPECT_GE(x, -2.0);
        EXPECT_LT(x, 5.0);
    }
}

// --- Summary ---

TEST(Summary, EmptyIsZero)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, BasicMoments)
{
    Summary s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Summary, SingleSample)
{
    Summary s;
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 3.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

// --- CounterSet ---

TEST(CounterSet, AddAndQuery)
{
    CounterSet c;
    c.add("cells", 10);
    c.add("cells", 5);
    EXPECT_DOUBLE_EQ(c.value("cells"), 15.0);
    EXPECT_DOUBLE_EQ(c.value("missing"), 0.0);
    EXPECT_TRUE(c.has("cells"));
    EXPECT_FALSE(c.has("missing"));
}

TEST(CounterSet, ResetKeepsNames)
{
    CounterSet c;
    c.add("a", 2);
    c.reset();
    EXPECT_TRUE(c.has("a"));
    EXPECT_DOUBLE_EQ(c.value("a"), 0.0);
}

TEST(CounterSet, MergeSums)
{
    CounterSet a, b;
    a.add("x", 1);
    b.add("x", 2);
    b.add("y", 3);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.value("x"), 3.0);
    EXPECT_DOUBLE_EQ(a.value("y"), 3.0);
}

// --- Histogram ---

TEST(Histogram, BinsAndClamping)
{
    Histogram h(0.0, 10.0, 5);
    h.add(-1.0); // clamps to bin 0
    h.add(0.5);
    h.add(9.5);
    h.add(99.0); // clamps to last bin
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(4), 2u);
    EXPECT_DOUBLE_EQ(h.binLow(1), 2.0);
    EXPECT_DOUBLE_EQ(h.binHigh(1), 4.0);
}

TEST(Histogram, RejectsBadConstruction)
{
    EXPECT_THROW(Histogram(1.0, 0.0, 4), PanicError);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), PanicError);
}

// --- Table & formatting ---

TEST(Table, PrintsHeaderAndRows)
{
    Table t("demo");
    t.setHeader({"a", "bb"});
    t.addRow({"1", "2"});
    t.addNote("note");
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("bb"), std::string::npos);
    EXPECT_NE(out.find("note"), std::string::npos);
    EXPECT_EQ(t.rows(), 1u);
}

TEST(Table, RowWidthMismatchPanics)
{
    Table t;
    t.setHeader({"a", "b"});
    EXPECT_THROW(t.addRow({"only one"}), PanicError);
}

TEST(Table, CsvOutput)
{
    Table t;
    t.setHeader({"x", "y"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Format, Helpers)
{
    EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(formatRatio(2.9, 1), "2.9x");
    EXPECT_EQ(formatPercent(0.227, 1), "22.7%");
    EXPECT_EQ(formatBytes(75.5 * 1024 * 1024 * 1024), "75.5 GB");
    EXPECT_EQ(formatSeconds(257.21), "257.21 s");
    EXPECT_EQ(formatSeconds(0.0025), "2.50 ms");
    EXPECT_NE(formatSci(2.9e7, 1).find("e+07"), std::string::npos);
}

// --- ParameterInput ---

TEST(ParameterInput, ParsesBlocksAndTypes)
{
    auto pin = ParameterInput::fromString(R"(
<parthenon/mesh>
nx1 = 128     # cells
periodic = true
<parthenon/meshblock>
nx1 = 16
cfl = 0.4
)");
    EXPECT_EQ(pin.getInt("parthenon/mesh", "nx1", 0), 128);
    EXPECT_EQ(pin.getInt("parthenon/meshblock", "nx1", 0), 16);
    EXPECT_TRUE(pin.getBool("parthenon/mesh", "periodic", false));
    EXPECT_DOUBLE_EQ(pin.getReal("parthenon/meshblock", "cfl", 0.0),
                     0.4);
}

TEST(ParameterInput, DefaultsWhenMissing)
{
    auto pin = ParameterInput::fromString("");
    EXPECT_EQ(pin.getInt("a", "b", 7), 7);
    EXPECT_EQ(pin.getString("a", "b", "dflt"), "dflt");
}

TEST(ParameterInput, LaterKeysOverride)
{
    auto pin = ParameterInput::fromString("<m>\nx = 1\nx = 2\n");
    EXPECT_EQ(pin.getInt("m", "x", 0), 2);
}

TEST(ParameterInput, SetOverrides)
{
    auto pin = ParameterInput::fromString("<m>\nx = 1\n");
    pin.set("m", "x", "9");
    EXPECT_EQ(pin.getInt("m", "x", 0), 9);
}

TEST(ParameterInput, Int64KeepsFullWidth)
{
    // 2^32 truncates through getInt but survives getInt64 — the width
    // cycle-valued knobs (e.g. <exec> fail_cycle) depend on.
    auto pin = ParameterInput::fromString("<m>\nx = 4294967296\n");
    EXPECT_EQ(pin.getInt64("m", "x", 0), INT64_C(4294967296));
    EXPECT_EQ(pin.getInt64("m", "missing", -1), -1);
    auto bad = ParameterInput::fromString("<m>\nx = abc\n");
    EXPECT_THROW(bad.getInt64("m", "x", 0), FatalError);
}

TEST(ParameterInput, MalformedLineIsFatal)
{
    EXPECT_THROW(ParameterInput::fromString("<m>\nno equals sign\n"),
                 FatalError);
    EXPECT_THROW(ParameterInput::fromString("<unclosed\n"), FatalError);
    EXPECT_THROW(ParameterInput::fromString("<>\n"), FatalError);
}

TEST(ParameterInput, BadTypesAreFatal)
{
    auto pin = ParameterInput::fromString("<m>\nx = abc\n");
    EXPECT_THROW(pin.getInt("m", "x", 0), FatalError);
    EXPECT_THROW(pin.getReal("m", "x", 0.0), FatalError);
    EXPECT_THROW(pin.getBool("m", "x", false), FatalError);
}

TEST(ParameterInput, RequireVariants)
{
    auto pin = ParameterInput::fromString("<m>\nx = 3\n");
    EXPECT_EQ(pin.requireInt("m", "x"), 3);
    EXPECT_THROW(pin.requireInt("m", "missing"), FatalError);
    EXPECT_THROW(pin.requireReal("m", "missing"), FatalError);
}

TEST(ParameterInput, MissingFileIsFatal)
{
    EXPECT_THROW(ParameterInput::fromFile("/nonexistent/deck.in"),
                 FatalError);
}

TEST(ParameterInput, UnknownKnobInRecognizedBlockIsFatal)
{
    // A typo inside a recognized block must not silently select the
    // default value.
    EXPECT_THROW(
        ParameterInput::fromString("<exec>\npack_interor = true\n"),
        FatalError);
    try {
        ParameterInput::fromString("<mesh>\nnx_1 = 64\n");
        FAIL() << "expected FatalError";
    } catch (const FatalError& err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("nx_1"), std::string::npos) << what;
        EXPECT_NE(what.find("<mesh>"), std::string::npos) << what;
    }
    // A retired knob is rejected like a typo: a stale deck naming the
    // removed boundary-path switch fails at parse, and the error lists
    // the knobs that do exist.
    try {
        ParameterInput::fromString("<exec>\nfused_boundaries = true\n");
        FAIL() << "expected FatalError";
    } catch (const FatalError& err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("fused_boundaries"), std::string::npos)
            << what;
        EXPECT_NE(what.find("known knobs"), std::string::npos) << what;
        EXPECT_NE(what.find("pack_interior"), std::string::npos) << what;
    }
    // Package blocks are validated too.
    EXPECT_THROW(
        ParameterInput::fromString("<advection>\nvelocity_x = 1\n"),
        FatalError);
    // Unrecognized block names pass through untouched.
    auto pin = ParameterInput::fromString("<myapp>\ncustom = 1\n");
    EXPECT_EQ(pin.getInt("myapp", "custom", 0), 1);
}

} // namespace
} // namespace vibe
