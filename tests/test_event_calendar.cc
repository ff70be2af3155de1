/**
 * @file
 * Tests for core/event_calendar.hh: min-heap ordering, deterministic
 * tie-breaking, lazy deletion (cancel/reschedule without heap
 * surgery), handle reuse, and a randomized cross-check against a
 * naive reference implementation.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "core/event_calendar.hh"
#include "core/rng.hh"

namespace laer
{
namespace
{

TEST(EventCalendar, StartsEmpty)
{
    EventCalendar cal;
    EXPECT_TRUE(cal.empty());
    EXPECT_EQ(cal.size(), 0u);
    EXPECT_TRUE(std::isinf(cal.peekTime()));
}

TEST(EventCalendar, PopsInTimeOrder)
{
    EventCalendar cal;
    std::vector<EventCalendar::Handle> handles;
    const std::vector<Seconds> times = {5.0, 1.0, 3.0, 4.0, 2.0};
    for (std::size_t i = 0; i < times.size(); ++i) {
        handles.push_back(cal.makeHandle(static_cast<int>(i)));
        cal.schedule(handles.back(), times[i]);
    }
    EXPECT_EQ(cal.size(), times.size());
    Seconds prev = -1.0;
    for (std::size_t i = 0; i < times.size(); ++i) {
        EXPECT_DOUBLE_EQ(cal.peekTime(),
                         static_cast<double>(i + 1));
        const EventCalendar::Event ev = cal.pop();
        EXPECT_GT(ev.time, prev);
        prev = ev.time;
    }
    EXPECT_TRUE(cal.empty());
}

TEST(EventCalendar, TiesBreakByKeyThenScheduleOrder)
{
    EventCalendar cal;
    // Same time, keys 2, 0, 1: pops must come back 0, 1, 2.
    const EventCalendar::Handle h2 = cal.makeHandle(2);
    const EventCalendar::Handle h0 = cal.makeHandle(0);
    const EventCalendar::Handle h1 = cal.makeHandle(1);
    cal.schedule(h2, 7.0);
    cal.schedule(h0, 7.0);
    cal.schedule(h1, 7.0);
    EXPECT_EQ(cal.pop().key, 0);
    EXPECT_EQ(cal.pop().key, 1);
    EXPECT_EQ(cal.pop().key, 2);

    // Same time AND key: schedule order wins.
    const EventCalendar::Handle a = cal.makeHandle(5);
    const EventCalendar::Handle b = cal.makeHandle(5);
    cal.schedule(a, 1.0);
    cal.schedule(b, 1.0);
    EXPECT_EQ(cal.pop().handle, a);
    EXPECT_EQ(cal.pop().handle, b);
}

TEST(EventCalendar, RescheduleReplacesTheLiveEntry)
{
    EventCalendar cal;
    const EventCalendar::Handle h = cal.makeHandle(0);
    cal.schedule(h, 10.0);
    cal.schedule(h, 2.0); // move earlier: old entry must be dead
    EXPECT_EQ(cal.size(), 1u);
    EXPECT_DOUBLE_EQ(cal.timeOf(h), 2.0);
    EXPECT_DOUBLE_EQ(cal.pop().time, 2.0);
    EXPECT_TRUE(cal.empty());

    cal.schedule(h, 1.0);
    cal.schedule(h, 8.0); // move later: the earlier entry is stale
    EXPECT_DOUBLE_EQ(cal.peekTime(), 8.0);
    EXPECT_DOUBLE_EQ(cal.pop().time, 8.0);
    EXPECT_TRUE(cal.empty());
}

TEST(EventCalendar, CancelIsLazyAndIdempotent)
{
    EventCalendar cal;
    const EventCalendar::Handle a = cal.makeHandle(0);
    const EventCalendar::Handle b = cal.makeHandle(1);
    cal.schedule(a, 1.0);
    cal.schedule(b, 2.0);
    cal.cancel(a);
    cal.cancel(a); // second cancel is a no-op
    EXPECT_FALSE(cal.scheduled(a));
    EXPECT_TRUE(cal.scheduled(b));
    EXPECT_EQ(cal.size(), 1u);
    // The dead entry is discarded when it surfaces.
    EXPECT_DOUBLE_EQ(cal.peekTime(), 2.0);
    EXPECT_EQ(cal.pop().handle, b);
    EXPECT_TRUE(cal.empty());
}

TEST(EventCalendar, HandleReuseDoesNotResurrectOldEntries)
{
    EventCalendar cal;
    const EventCalendar::Handle a = cal.makeHandle(0);
    cal.schedule(a, 1.0);
    cal.releaseHandle(a); // cancels the live entry

    // The freed slot is reused; the stale heap entry from the first
    // owner must stay dead even though the handle value matches.
    const EventCalendar::Handle b = cal.makeHandle(9);
    EXPECT_EQ(a, b);
    EXPECT_FALSE(cal.scheduled(b));
    cal.schedule(b, 5.0);
    EXPECT_EQ(cal.size(), 1u);
    const EventCalendar::Event ev = cal.pop();
    EXPECT_DOUBLE_EQ(ev.time, 5.0);
    EXPECT_EQ(ev.key, 9);
    EXPECT_TRUE(cal.empty());
}

TEST(EventCalendar, RandomizedAgainstNaiveReference)
{
    // Reference: per-handle (key, time) map; earliest = min over the
    // map with (time, key, schedule seq) ordering.
    struct RefEntry
    {
        int key = 0;
        Seconds time = 0.0;
        std::uint64_t seq = 0;
        bool live = false;
    };
    EventCalendar cal;
    std::vector<EventCalendar::Handle> handles;
    std::vector<RefEntry> ref;
    for (int i = 0; i < 16; ++i) {
        handles.push_back(cal.makeHandle(i));
        RefEntry e;
        e.key = i;
        ref.push_back(e);
    }
    const auto refBest = [&]() -> int {
        int best = -1;
        for (std::size_t i = 0; i < ref.size(); ++i) {
            if (!ref[i].live)
                continue;
            if (best < 0 || ref[i].time < ref[best].time ||
                (ref[i].time == ref[best].time &&
                 (ref[i].key < ref[best].key ||
                  (ref[i].key == ref[best].key &&
                   ref[i].seq < ref[best].seq))))
                best = static_cast<int>(i);
        }
        return best;
    };

    Rng rng(20260808);
    std::uint64_t seq = 0;
    for (int round = 0; round < 5000; ++round) {
        const int h = rng.uniformInt(
            0, static_cast<int>(handles.size()) - 1);
        const double op = rng.uniform();
        if (op < 0.55) {
            // Times drawn from a small grid to force plenty of ties.
            const Seconds t =
                static_cast<double>(rng.uniformInt(0, 31)) * 0.25;
            cal.schedule(handles[h], t);
            ref[h].time = t;
            ref[h].seq = seq++;
            ref[h].live = true;
        } else if (op < 0.75) {
            cal.cancel(handles[h]);
            ref[h].live = false;
        } else {
            const int best = refBest();
            if (best < 0) {
                EXPECT_TRUE(cal.empty());
                EXPECT_TRUE(std::isinf(cal.peekTime()));
            } else {
                const EventCalendar::Event ev = cal.pop();
                EXPECT_DOUBLE_EQ(ev.time, ref[best].time);
                EXPECT_EQ(ev.key, ref[best].key);
                ref[best].live = false;
            }
        }
        std::size_t live = 0;
        for (const RefEntry &e : ref)
            live += e.live ? 1u : 0u;
        ASSERT_EQ(cal.size(), live);
        const int best = refBest();
        if (best >= 0) {
            ASSERT_DOUBLE_EQ(cal.peekTime(), ref[best].time);
        }
    }
}

} // namespace
} // namespace laer
