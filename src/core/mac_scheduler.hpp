/**
 * @file
 * List scheduler for the MAC vector array.
 *
 * Products (one per LHS non-zero: a scalar x RHS-row vector operation,
 * Fig. 9(b)) become ready when their RHS row is available. The MAC
 * array consumes ready products in (ready, issue-sequence) order; each
 * occupies the array for ceil(F / lanes) cycles. The scheduler exposes
 * completions so the row engine can retire output rows in order
 * (Fig. 15's head/tail window).
 *
 * Products arrive in two kinds, kept in two structures:
 *
 *  - *In-order* products are ready at issue: combination products
 *    (RHS resident on-chip) and HDN / LRU cache hits. Their ready time
 *    is the engine's control clock, which only moves forward, so they
 *    already arrive sorted. They go to a FIFO of runs: a product whose
 *    ready time and sequence number both follow the tail run's last
 *    product by one, with the same row token and duration, extends
 *    that run instead of taking a node of its own. Inside one row the
 *    CAM issues one lookup per cycle, so a row's consecutive hits form
 *    one run.
 *  - *Miss fills* become ready when their DRAM fill returns, which can
 *    be out of order; they stay in a per-product heap.
 *
 * drainOne() merges the two by (ready, seq) -- exactly the order a
 * single heap over all products would produce -- and drains the
 * longest prefix of the head run that precedes the heap top in one
 * closed-form step. The closed form is exact: the run's ready times
 * advance by one per product and every duration is at least one, so
 * from the second product on the MAC array is the bottleneck and k
 * products finish at max(macFree, firstReady) + k * dur.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "sim/types.hpp"

namespace grow::core {

/**
 * A batch of completed products, all of one row, executed back to
 * back; @c finish is the finish cycle of the last one.
 */
struct MacCompletion
{
    uint64_t rowToken = 0; ///< engine-assigned identifier of the row
    Cycle finish = 0;
    uint64_t count = 1; ///< products completed by this drain
};

class MacScheduler
{
  public:
    MacScheduler() = default;

    /**
     * Queue a product of @p dur cycles that is ready at issue.
     * @pre @p ready is not earlier than the previous in-order product's.
     */
    void addInOrder(Cycle ready, uint64_t row_token, Cycle dur);

    /** Queue a product of @p dur cycles whose RHS row arrives at
     *  @p ready (any order). */
    void addMissFill(Cycle ready, uint64_t row_token, Cycle dur);

    /** Whether any products remain unexecuted. */
    bool idle() const { return pending_ == 0; }

    size_t pendingProducts() const { return pending_; }

    /**
     * Execute the earliest-ready pending product, together with the
     * products of its run that come before every other pending one.
     * @pre !idle()
     */
    MacCompletion drainOne();

    /** Cycle at which the MAC array next becomes free. */
    Cycle macFree() const { return macFree_; }

    /** Total cycles the array spent executing products. */
    Cycle busyCycles() const { return busyCycles_; }

  private:
    /** @c count in-order products: ready firstReady + i, seq firstSeq + i. */
    struct Run
    {
        Cycle firstReady;
        uint64_t firstSeq;
        uint64_t count;
        Cycle dur;
        uint64_t rowToken;
    };

    struct Product
    {
        Cycle ready;
        uint64_t seq;
        uint64_t rowToken;
        Cycle dur;
    };

    struct Later
    {
        bool
        operator()(const Product &a, const Product &b) const
        {
            if (a.ready != b.ready)
                return a.ready > b.ready;
            return a.seq > b.seq;
        }
    };

    /** Products of @p run that precede (ready, seq) in merge order. */
    static uint64_t prefixBefore(const Run &run, Cycle ready,
                                 uint64_t seq);

    void popRun();

    // Run FIFO: live runs are runs_[runHead_, runs_.size()).
    std::vector<Run> runs_;
    size_t runHead_ = 0;
    Cycle lastInOrderReady_ = 0;

    std::priority_queue<Product, std::vector<Product>, Later> fills_;

    uint64_t nextSeq_ = 0;
    size_t pending_ = 0;
    Cycle macFree_ = 0;
    Cycle busyCycles_ = 0;
};

} // namespace grow::core
