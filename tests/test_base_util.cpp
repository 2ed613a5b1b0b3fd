/**
 * @file
 * Unit tests for base utilities: integer math, strings, circular
 * buffers, and the logging macros.
 */

#include <gtest/gtest.h>

#include "base/circular_buffer.hh"
#include "base/intmath.hh"
#include "base/logging.hh"
#include "base/str.hh"

using namespace loopsim;

TEST(IntMath, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ULL << 40));
    EXPECT_FALSE(isPowerOf2((1ULL << 40) + 1));
}

TEST(IntMath, Logs)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(ceilLog2(64), 6u);
    EXPECT_EQ(ceilLog2(65), 7u);
    EXPECT_EQ(ceilLog2(1), 0u);
}

TEST(IntMath, DivCeilAndRounding)
{
    EXPECT_EQ(divCeil(10, 3), 4u);
    EXPECT_EQ(divCeil(9, 3), 3u);
    EXPECT_EQ(roundUp(13, 8), 16u);
    EXPECT_EQ(roundUp(16, 8), 16u);
    EXPECT_EQ(roundDown(13, 8), 8u);
}

TEST(Str, TrimAndSplit)
{
    EXPECT_EQ(trim("  hi \t\n"), "hi");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
    EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Str, PrefixAndCase)
{
    EXPECT_TRUE(startsWith("core.iq", "core."));
    EXPECT_FALSE(startsWith("co", "core"));
    EXPECT_EQ(toLower("SwIm"), "swim");
}

TEST(Str, Formatting)
{
    EXPECT_EQ(formatDouble(1.23456, 2), "1.23");
    EXPECT_EQ(formatPercent(0.1234, 1), "12.3%");
    EXPECT_EQ(padLeft("x", 3), "  x");
    EXPECT_EQ(padRight("x", 3), "x  ");
    EXPECT_EQ(padLeft("abcd", 3), "abcd");
}

TEST(CircularBuffer, FifoOrder)
{
    CircularBuffer<int> buf(4);
    EXPECT_TRUE(buf.empty());
    buf.push(1);
    buf.push(2);
    buf.push(3);
    EXPECT_EQ(buf.size(), 3u);
    EXPECT_EQ(buf.front(), 1);
    EXPECT_EQ(buf.back(), 3);
    EXPECT_EQ(buf.pop(), 1);
    EXPECT_EQ(buf.pop(), 2);
    buf.push(4);
    buf.push(5);
    buf.push(6);
    EXPECT_TRUE(buf.full());
    EXPECT_EQ(buf.pop(), 3);
    EXPECT_EQ(buf.pop(), 4);
}

TEST(CircularBuffer, IndexedAccess)
{
    CircularBuffer<int> buf(3);
    buf.push(10);
    buf.push(20);
    buf.pop();
    buf.push(30);
    buf.push(40); // storage wrapped
    EXPECT_EQ(buf[0], 20);
    EXPECT_EQ(buf[1], 30);
    EXPECT_EQ(buf[2], 40);
}

TEST(CircularBuffer, PopBack)
{
    CircularBuffer<int> buf(3);
    buf.push(1);
    buf.push(2);
    EXPECT_EQ(buf.popBack(), 2);
    EXPECT_EQ(buf.back(), 1);
}

TEST(CircularBuffer, PushFrontPrependsOldest)
{
    CircularBuffer<int> buf(4);
    buf.push(2);
    buf.pushFront(1);
    buf.pushFront(0); // wraps below storage index 0
    buf.push(3);
    EXPECT_TRUE(buf.full());
    EXPECT_THROW(buf.pushFront(-1), PanicError);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(buf[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(buf.pop(), 0);
    EXPECT_EQ(buf.popBack(), 3);
    EXPECT_EQ(buf.front(), 1);
    EXPECT_EQ(buf.back(), 2);
}

TEST(CircularBuffer, EraseIfIsStable)
{
    CircularBuffer<int> buf(8);
    // Start mid-storage so the survivors' moves cross the wrap point.
    for (int i = 0; i < 5; ++i)
        buf.push(-1);
    for (int i = 0; i < 5; ++i)
        buf.pop();
    for (int i = 0; i < 8; ++i)
        buf.push(i);
    EXPECT_EQ(buf.eraseIf([](int v) { return v % 3 == 1; }), 3u);
    ASSERT_EQ(buf.size(), 5u);
    const int expect[] = {0, 2, 3, 5, 6};
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(buf[i], expect[i]);
    EXPECT_EQ(buf.eraseIf([](int) { return false; }), 0u);
    EXPECT_EQ(buf.size(), 5u);
    // Freed slots are reusable, in order.
    buf.push(7);
    EXPECT_EQ(buf.back(), 7);
    EXPECT_EQ(buf.eraseIf([](int) { return true; }), 6u);
    EXPECT_TRUE(buf.empty());
}

TEST(CircularBuffer, NonPowerOfTwoCapacityWraps)
{
    // Storage rounds 5 up to 8, but the buffer is full at exactly 5,
    // and a FIFO that wraps the masked storage many times keeps order.
    CircularBuffer<int> buf(5);
    EXPECT_EQ(buf.capacity(), 5u);
    int next_in = 0;
    int next_out = 0;
    for (int round = 0; round < 40; ++round) {
        while (!buf.full())
            buf.push(next_in++);
        EXPECT_EQ(buf.size(), 5u);
        EXPECT_THROW(buf.push(-1), PanicError);
        const int drain = 1 + round % 5;
        for (int i = 0; i < drain; ++i)
            EXPECT_EQ(buf.pop(), next_out++);
        EXPECT_EQ(buf.freeSlots(), static_cast<std::size_t>(drain));
    }
    for (std::size_t i = 0; i < buf.size(); ++i)
        EXPECT_EQ(buf[i], next_out + static_cast<int>(i));
}

TEST(CircularBuffer, ErrorsPanic)
{
    CircularBuffer<int> buf(2);
    EXPECT_THROW(buf.pop(), PanicError);
    EXPECT_THROW(buf.front(), PanicError);
    EXPECT_THROW(buf[0], PanicError);
    buf.push(1);
    buf.push(2);
    EXPECT_THROW(buf.push(3), PanicError);
    EXPECT_THROW(CircularBuffer<int>(0), PanicError);
}

TEST(Logging, PanicAndFatalThrowDistinctTypes)
{
    EXPECT_THROW(panic("boom ", 42), PanicError);
    EXPECT_THROW(fatal("user error ", "x"), FatalError);
    EXPECT_THROW(panic_if(true, "cond"), PanicError);
    EXPECT_NO_THROW(panic_if(false, "cond"));
    EXPECT_THROW(fatal_if(true, "cond"), FatalError);
    EXPECT_NO_THROW(fatal_if(false, "cond"));
}

TEST(Logging, MessagesCarryContent)
{
    try {
        panic("value=", 7, " name=", "x");
        FAIL() << "panic did not throw";
    } catch (const PanicError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("value=7"), std::string::npos);
        EXPECT_NE(msg.find("name=x"), std::string::npos);
    }
}
