// Copyright 2026 The MinoanER Authors.
// FairShare: the admission-control gate of the resolution service.
//
// Every expensive request (Step / ResolveBudget installments, Ingest,
// Query) acquires a slot before touching a session and reports its cost
// (executed comparisons) on release. The gate enforces two properties:
//
//   1. Bounded concurrency. At most `capacity` installments run at once —
//      the service's CPU envelope. Each runs on the connection thread the
//      gate admitted; there is no separate worker pool.
//   2. Tenant fairness. When tenants contend, slots go to the waiting
//      tenant with the least accumulated cost (virtual time), so a tenant
//      stepping a million comparisons cannot starve one stepping a
//      thousand: the light tenant's installments are admitted between the
//      heavy tenant's. Ties (equal spend — e.g. two fresh tenants) fall
//      back to arrival order.
//
// A tenant arriving for the first time — or returning after its spend
// fell behind — starts at the minimum live virtual time rather than zero,
// the classic start-time rule of fair queuing: history does not entitle a
// returning tenant to monopolize the gate until it "catches up".
//
// Fairness only changes WHEN an installment runs, never what it computes:
// sessions are independent, so every admission order yields byte-identical
// per-session results (the determinism contract of the service).

#ifndef MINOAN_SERVER_FAIR_SHARE_H_
#define MINOAN_SERVER_FAIR_SHARE_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace minoan {
namespace server {

class FairShare {
 public:
  /// One held slot. Its destructor releases the slot and charges the cost
  /// recorded with Charge() — at least 1, so a flat request still advances
  /// its tenant's virtual time and FIFO cannot regress into starvation. The
  /// release runs on every exit path, an exception included.
  class Slot {
   public:
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;
    ~Slot();

    /// Adds to the cost charged on release (comparisons, or entities).
    void Charge(uint64_t cost) { cost_ += cost; }

   private:
    friend class FairShare;
    Slot(FairShare* gate, uint64_t* vtime) : gate_(gate), vtime_(vtime) {}
    FairShare* gate_;
    uint64_t* vtime_;  // the tenant's vtime_ entry (map nodes are stable)
    uint64_t cost_ = 0;
  };

  /// `capacity` = concurrent installment slots (>= 1).
  explicit FairShare(size_t capacity);

  /// Blocks until `tenant` holds a slot. Reentrant across tenants, not
  /// within one thread (a thread must release before acquiring again).
  [[nodiscard]] Slot Acquire(const std::string& tenant);

  /// Accumulated cost charged to `tenant` (0 when unseen).
  uint64_t TenantCost(std::string_view tenant) const;

  size_t capacity() const { return capacity_; }

 private:
  struct Waiter {
    uint64_t vtime;    // tenant vtime at enqueue — the admission key
    uint64_t arrival;  // FIFO tie-break
    bool admitted = false;
  };

  /// Admits eligible waiters (slots free, least vtime first) and notifies.
  /// Caller holds mu_.
  void AdmitLocked();
  /// Frees a slot and charges `cost` to the tenant's vtime (Slot's dtor).
  void Release(uint64_t* vtime, uint64_t cost);

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t in_flight_ = 0;
  uint64_t arrivals_ = 0;
  /// Virtual time per tenant: total cost charged so far, floored to the
  /// minimum active vtime on (re)arrival. Entries are never erased.
  std::unordered_map<std::string, uint64_t> vtime_;
  std::list<Waiter> waiters_;
};

}  // namespace server
}  // namespace minoan

#endif  // MINOAN_SERVER_FAIR_SHARE_H_
