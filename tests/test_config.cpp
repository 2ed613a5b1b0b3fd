/**
 * @file
 * Unit tests for the typed configuration store and the simulation
 * kernel.
 */

#include <gtest/gtest.h>

#include <string>

#include "base/logging.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"

using namespace loopsim;

TEST(Config, TypedRoundTrip)
{
    Config c;
    c.setInt("a", -5);
    c.setUint("b", 42);
    c.setDouble("d", 0.25);
    c.setBool("t", true);
    c.set("s", "hello");
    EXPECT_EQ(c.getInt("a", 0), -5);
    EXPECT_EQ(c.getUint("b", 0), 42u);
    EXPECT_DOUBLE_EQ(c.getDouble("d", 0), 0.25);
    EXPECT_TRUE(c.getBool("t", false));
    EXPECT_EQ(c.getString("s", ""), "hello");
}

TEST(Config, DefaultsWhenAbsent)
{
    Config c;
    EXPECT_EQ(c.getInt("missing", 7), 7);
    EXPECT_EQ(c.getUint("missing2", 9), 9u);
    EXPECT_DOUBLE_EQ(c.getDouble("missing3", 1.5), 1.5);
    EXPECT_FALSE(c.getBool("missing4", false));
    EXPECT_EQ(c.getString("missing5", "z"), "z");
    EXPECT_FALSE(c.has("missing"));
}

TEST(Config, BoolSpellings)
{
    Config c;
    for (const char *t : {"true", "1", "yes", "on", "TRUE", "Yes"}) {
        c.set("k", t);
        EXPECT_TRUE(c.getBool("k", false)) << t;
    }
    for (const char *f : {"false", "0", "no", "off", "False"}) {
        c.set("k", f);
        EXPECT_FALSE(c.getBool("k", true)) << f;
    }
    c.set("k", "maybe");
    EXPECT_THROW(c.getBool("k", false), FatalError);
}

TEST(Config, ParseAssignments)
{
    Config c;
    c.parseAssignment(" core.iq.entries = 64 ");
    EXPECT_EQ(c.getUint("core.iq.entries", 0), 64u);
    c.parseArgs({"a=1", "b.c=2"});
    EXPECT_EQ(c.getInt("a", 0), 1);
    EXPECT_EQ(c.getInt("b.c", 0), 2);
    EXPECT_THROW(c.parseAssignment("novalue"), FatalError);
    EXPECT_THROW(c.parseAssignment("=5"), FatalError);
}

/** The message fatal() reports for @p body. */
template <class Body>
std::string
fatalMessage(Body body)
{
    detail::setQuiet(true);
    std::string msg;
    try {
        body();
    } catch (const FatalError &e) {
        msg = e.what();
    }
    detail::setQuiet(false);
    return msg;
}

TEST(Config, UserErrorsReadAsPlainMessages)
{
    Config c;
    EXPECT_EQ(fatalMessage([&] { c.parseAssignment("foo"); }),
              "fatal: malformed config assignment (need k=v): foo");
    c.set("core.iq.entries", "abc");
    EXPECT_EQ(fatalMessage([&] { c.getUint("core.iq.entries", 0); }),
              "fatal: config key core.iq.entries is not an integer: abc");
    c.set("x", "-1");
    EXPECT_EQ(fatalMessage([&] { c.getUint("x", 0); }),
              "fatal: config key x must be non-negative");
    c.set("y", "1.5.2");
    EXPECT_EQ(fatalMessage([&] { c.getDouble("y", 0); }),
              "fatal: config key y is not a number: 1.5.2");
}

TEST(Config, HexAndNegativeIntegers)
{
    Config c;
    c.set("h", "0x40");
    EXPECT_EQ(c.getInt("h", 0), 64);
    c.set("n", "-12");
    EXPECT_EQ(c.getInt("n", 0), -12);
    EXPECT_THROW(c.getUint("n", 0), FatalError);
    c.set("bad", "12abc");
    EXPECT_THROW(c.getInt("bad", 0), FatalError);
}

TEST(Config, UnreadKeysDetected)
{
    Config c;
    c.set("used", "1");
    c.set("typo.key", "1");
    c.getInt("used", 0);
    auto unread = c.unreadKeys();
    ASSERT_EQ(unread.size(), 1u);
    EXPECT_EQ(unread[0], "typo.key");
}

TEST(Config, OverlayWins)
{
    Config base;
    base.set("a", "1");
    base.set("b", "2");
    Config over;
    over.set("b", "20");
    over.set("c", "30");
    base.overlay(over);
    EXPECT_EQ(base.getInt("a", 0), 1);
    EXPECT_EQ(base.getInt("b", 0), 20);
    EXPECT_EQ(base.getInt("c", 0), 30);
}

namespace
{

/** Ticks for a fixed number of cycles, then reports done. */
class CountdownClocked : public Clocked
{
  public:
    explicit CountdownClocked(int n) : remaining(n) {}
    void
    tick(Cycle) override
    {
        ++ticks;
        if (remaining > 0)
            --remaining;
    }
    bool done() const override { return remaining == 0; }

    int ticks = 0;

  private:
    int remaining;
};

} // anonymous namespace

TEST(Simulator, RunsUntilAllDone)
{
    CountdownClocked a(5);
    CountdownClocked b(9);
    Simulator sim;
    sim.add(&a);
    sim.add(&b);
    Cycle ran = sim.run(100);
    EXPECT_EQ(ran, 9u);
    EXPECT_FALSE(sim.hitCycleLimit());
    EXPECT_EQ(a.ticks, 9); // still ticked while b finished
    EXPECT_EQ(sim.now(), 9u);
}

TEST(Simulator, HonoursCycleLimit)
{
    CountdownClocked a(50);
    Simulator sim;
    sim.add(&a);
    Cycle ran = sim.run(10);
    EXPECT_EQ(ran, 10u);
    EXPECT_TRUE(sim.hitCycleLimit());
    // Continuing picks up where it stopped.
    ran = sim.run(100);
    EXPECT_EQ(ran, 40u);
    EXPECT_FALSE(sim.hitCycleLimit());
    EXPECT_EQ(sim.now(), 50u);
}

TEST(Simulator, ErrorsPanic)
{
    Simulator sim;
    EXPECT_THROW(sim.add(nullptr), PanicError);
    EXPECT_THROW(sim.run(10), PanicError); // no components
}
