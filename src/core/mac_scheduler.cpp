#include "core/mac_scheduler.hpp"

#include <algorithm>
#include <cstddef>

#include "util/logging.hpp"

namespace grow::core {

void
MacScheduler::addInOrder(Cycle ready, uint64_t row_token, Cycle dur)
{
    GROW_ASSERT(dur > 0, "product duration must be positive");
    GROW_ASSERT(ready >= lastInOrderReady_,
                "in-order product ready before its predecessor");
    lastInOrderReady_ = ready;
    const uint64_t seq = nextSeq_++;
    ++pending_;
    if (runHead_ < runs_.size()) {
        Run &tail = runs_.back();
        if (tail.rowToken == row_token && tail.dur == dur &&
            tail.firstReady + tail.count == ready &&
            tail.firstSeq + tail.count == seq) {
            ++tail.count;
            return;
        }
    }
    // Reclaim drained runs before the vector would grow, but only when
    // they are at least half of it, so each compaction moves no more
    // runs than were drained since the last one.
    if (runs_.size() == runs_.capacity() && runHead_ * 2 >= runs_.size()) {
        runs_.erase(runs_.begin(),
                    runs_.begin() + static_cast<std::ptrdiff_t>(runHead_));
        runHead_ = 0;
    }
    runs_.push_back(Run{ready, seq, 1, dur, row_token});
}

void
MacScheduler::addMissFill(Cycle ready, uint64_t row_token, Cycle dur)
{
    GROW_ASSERT(dur > 0, "product duration must be positive");
    fills_.push(Product{ready, nextSeq_++, row_token, dur});
    ++pending_;
}

uint64_t
MacScheduler::prefixBefore(const Run &run, Cycle ready, uint64_t seq)
{
    // Product i of the run has key (firstReady + i, firstSeq + i); both
    // grow with i, so the products before (ready, seq) form a prefix:
    // every i with firstReady + i < ready, plus i = ready - firstReady
    // when its seq wins the tie.
    if (ready < run.firstReady)
        return 0;
    const uint64_t d = ready - run.firstReady;
    if (d >= run.count)
        return run.count;
    return d + (run.firstSeq + d < seq ? 1 : 0);
}

void
MacScheduler::popRun()
{
    if (++runHead_ == runs_.size()) {
        runs_.clear();
        runHead_ = 0;
    }
}

MacCompletion
MacScheduler::drainOne()
{
    GROW_ASSERT(pending_ > 0, "drainOne() with no pending products");
    if (runHead_ < runs_.size()) {
        Run &run = runs_[runHead_];
        const uint64_t take =
            fills_.empty() ? run.count
                           : prefixBefore(run, fills_.top().ready,
                                          fills_.top().seq);
        if (take > 0) {
            // Ready times step by 1 and dur >= 1: after the first
            // product the array, not the data, is the bottleneck.
            const Cycle work = take * run.dur;
            macFree_ = std::max(macFree_, run.firstReady) + work;
            busyCycles_ += work;
            pending_ -= take;
            const MacCompletion done{run.rowToken, macFree_, take};
            run.firstReady += take;
            run.firstSeq += take;
            run.count -= take;
            if (run.count == 0)
                popRun();
            return done;
        }
    }
    Product p = fills_.top();
    fills_.pop();
    --pending_;
    macFree_ = std::max(macFree_, p.ready) + p.dur;
    busyCycles_ += p.dur;
    return MacCompletion{p.rowToken, macFree_, 1};
}

} // namespace grow::core
