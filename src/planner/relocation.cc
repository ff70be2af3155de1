/**
 * @file
 * Expert relocation (paper Alg. 1) with one tournament tree per call.
 *
 * Alg. 1 places each replica on the least-loaded free device among
 * the nodes holding the fewest replicas of its expert, and avoids a
 * device that already hosts the expert whenever another free device
 * exists. Nodes are contiguous device ranges (node(d) = d /
 * devicesPerNode), so that choice is one lexicographic minimum over
 * devices of the key
 *
 *     (replicas of the expert on node(d), load[d], d),
 *
 * taken among free devices that do not host the expert, or among all
 * free devices when every free device hosts it. A segment tree over
 * devices keeps both minima at every internal node; a full device has
 * no key. The tree is rebuilt when the item's expert changes (once per
 * expert: an expert's items are adjacent in the sorted list) and,
 * after a placement, only the placed node's leaves and their ancestors
 * are recomputed, since only that node's keys moved: a replica costs
 * O(devicesPerNode + log N). docs/PERF.md proves the pick equal to
 * Alg. 1's per-node-heap formulation, which tests/test_relocation.cc
 * keeps as its oracle.
 */

#include "planner/relocation.hh"

#include <algorithm>

#include "core/error.hh"

namespace laer
{

ExpertLayout
expertRelocation(const Cluster &cluster, const std::vector<int> &expert_rep,
                 const std::vector<TokenCount> &expert_loads, int capacity)
{
    const int n = cluster.numDevices();
    const int e = static_cast<int>(expert_rep.size());
    LAER_CHECK(static_cast<int>(expert_loads.size()) == e,
               "replica/load vectors disagree");
    int total_rep = 0;
    for (int r : expert_rep) {
        LAER_CHECK(r >= 1, "every expert needs at least one replica");
        total_rep += r;
    }
    LAER_CHECK(total_rep == n * capacity,
               "replica budget " << total_rep << " != slots "
                                 << n * capacity);

    // Alg. 1 lines 3-5: one list entry per replica, carrying the
    // expected average load, sorted descending.
    struct Item
    {
        ExpertId expert;
        double load;
    };
    std::vector<Item> list;
    list.reserve(total_rep);
    for (ExpertId j = 0; j < e; ++j) {
        const double avg = static_cast<double>(expert_loads[j]) /
                           expert_rep[j];
        for (int r = 0; r < expert_rep[j]; ++r)
            list.push_back({j, avg});
    }
    std::stable_sort(list.begin(), list.end(),
                     [](const Item &a, const Item &b) {
                         return a.load > b.load;
                     });

    const int dpn = cluster.devicesPerNode();
    ExpertLayout layout(n, e);
    std::vector<int> expert_count(n, 0); // slots used per device
    std::vector<double> device_loads(n, 0.0);
    std::vector<int> node_cnt(static_cast<std::size_t>(e) *
                                  cluster.numNodes(),
                              0); // [expert][node] replicas

    // Tournament tree: leaves [size, 2 size) are devices, padding
    // included; -1 is "no device". `all` holds the min-key free
    // device of a range, `fresh` the min-key free device not hosting
    // the current expert.
    int size = 1;
    while (size < n)
        size *= 2;
    std::vector<DeviceId> all(2 * static_cast<std::size_t>(size), -1);
    std::vector<DeviceId> fresh(all.size(), -1);
    ExpertId expert = -1;
    const int *cnt = nullptr; // the current expert's node_cnt row

    // Winner of a left and a right range. Devices in the left range
    // have lower ids, so a (count, load) tie keeps the left winner.
    auto winner = [&](DeviceId l, DeviceId r) {
        if (l < 0 || r < 0)
            return l < 0 ? r : l;
        const int cl = cnt[l / dpn];
        const int cr = cnt[r / dpn];
        if (cl != cr)
            return cr < cl ? r : l;
        return device_loads[r] < device_loads[l] ? r : l;
    };
    auto set_leaf = [&](DeviceId d) {
        const bool free = expert_count[d] < capacity;
        all[size + d] = free ? d : -1;
        fresh[size + d] = free && layout.at(d, expert) == 0 ? d : -1;
    };
    auto pull = [&](int i) {
        all[i] = winner(all[2 * i], all[2 * i + 1]);
        fresh[i] = winner(fresh[2 * i], fresh[2 * i + 1]);
    };

    for (const Item &item : list) {
        if (item.expert != expert) {
            expert = item.expert;
            cnt = &node_cnt[static_cast<std::size_t>(expert) *
                            cluster.numNodes()];
            for (DeviceId d = 0; d < n; ++d)
                set_leaf(d);
            for (int i = size - 1; i >= 1; --i)
                pull(i);
        }

        // Alg. 1 lines 7-10, plus the duplicate avoidance: a second
        // replica on one device adds no balancing power.
        LAER_ASSERT(all[1] >= 0, "no device has a free expert slot");
        const DeviceId best = fresh[1] >= 0 ? fresh[1] : all[1];

        // Alg. 1 lines 11-13: commit the placement.
        const NodeId nd = cluster.node(best);
        ++layout.at(best, expert);
        device_loads[best] += item.load;
        ++expert_count[best];
        ++node_cnt[static_cast<std::size_t>(expert) * cluster.numNodes() +
                   nd];

        // Every key on node nd changed its count; only `best` changed
        // its leaf. Recompute the ancestors of the node's device range.
        set_leaf(best);
        const DeviceId first = cluster.firstDeviceOf(nd);
        for (int lo = (size + first) / 2, hi = (size + first + dpn - 1) / 2;
             lo >= 1; lo /= 2, hi /= 2)
            for (int i = lo; i <= hi; ++i)
                pull(i);
    }
    return layout;
}

} // namespace laer
