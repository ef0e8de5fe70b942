// Lock-rank registry: the single source of truth for the process-wide
// lock acquisition order.
//
// Every util::Mutex in src/ must be constructed with one rank from
// this header. The runtime checker (util/mutex.h) enforces that a
// thread only ever acquires a mutex whose rank is STRICTLY GREATER
// than every rank it already holds -- so any acquisition pattern the
// tests exercise is provably deadlock-free by construction: a cycle of
// waiting threads would need a rank to be both less than and greater
// than another. Equal ranks may never nest, which is exactly right for
// the per-instance mutexes below (one msg mailbox is never locked
// while another is held).
//
// tools/lock_rank_audit parses this file (the `inline constexpr int`
// rows and the LOCK_ORDER edge declarations), cross-checks every
// declared edge against the rank values, fails on cycles, and verifies
// that every util::Mutex declaration in src/ names a rank from here.
// Adding a mutex means adding a row here first -- the audit (CTest
// label `static`) fails otherwise.
//
// Declared nestings (outer -> inner; each edge must be rank-increasing):
// LOCK_ORDER: kThreadPoolFork -> kThreadPoolState
#pragma once

namespace cellsweep::util::lockrank {

/// server::ArrivalDriver::mu_ -- replay progress of an open-system
/// arrival schedule (submitted ids, behind-schedule accounting). Ranked
/// before the server so the driver could submit while holding it; in
/// practice it never does (leaf usage on the driver thread).
inline constexpr int kArrivalDriver = 5;

/// SolveServer::mu_ -- job queue, result map, cancel-flag registry,
/// server stats. Held only around that bookkeeping; never while
/// running a job.
inline constexpr int kSolveServer = 10;

/// ThreadPool::fork_mu_ -- serializes whole fork/join sections; held
/// across the join wait, and across kThreadPoolState acquisitions.
inline constexpr int kThreadPoolFork = 20;

/// ThreadPool::mu_ -- the generation/pending handshake state.
inline constexpr int kThreadPoolState = 21;

/// SpeAllocator::mu_ -- the free map, waiter/holder accounting and
/// fair-share state of the shared chip.
inline constexpr int kSpeAllocator = 30;

/// PlanCache::mu_ -- the Sn-order -> quadrature table and hit/miss
/// stats. Never held while pricing a chunk shape.
inline constexpr int kPlanCache = 40;

/// KernelCostModel::mu_ -- the chunk-shape -> cost memo; held while a
/// missing shape is priced (SPU trace recording and scheduling, which
/// take no lock). Leaf usage.
inline constexpr int kKernelCostModel = 45;

/// msg::World mailbox mutexes (one per rank; never nested).
inline constexpr int kMsgMailbox = 50;

/// msg::World::barrier_mu_ -- central barrier generation state.
inline constexpr int kMsgBarrier = 51;

/// msg::World::reduce_mu_ -- reduction slots and generation.
inline constexpr int kMsgReduce = 52;

/// msg::World::degrade_mu_ -- per-rank degraded-send delays.
inline constexpr int kMsgDegrade = 53;

/// core::MetricsRegistry::mu_ -- the telemetry family map. Ranked
/// after every server/allocator lock so any component may record a
/// sample while holding its own state lock; in practice the server
/// records outside its locks (leaf usage).
inline constexpr int kMetricsRegistry = 60;

/// core::FlightRecorder::mu_ -- the bounded lifecycle-event ring.
/// Same placement rationale as kMetricsRegistry; never held while
/// acquiring anything else.
inline constexpr int kFlightRecorder = 61;

}  // namespace cellsweep::util::lockrank
