// Shard-safety annotation vocabulary, checked by tools/nocsim_lint.
//
// The tiled cycle loop keeps metrics byte-identical at every tile count by a
// write-ownership discipline: between barriers, tile T only writes per-node
// state in its own row range, and cross-tile effects travel through halo
// outboxes applied by the owner in the next phase. These markers make that
// discipline visible to the linter's cross-file symbol table:
//
//   NOCSIM_TILE_LOCAL       per-node/per-tile state, indexed by node id;
//                           a phase body may write entry i only if the
//                           running tile owns node i.
//   NOCSIM_SHARED_READONLY  state every tile may read during phases but
//                           only serial sections (begin/finish, epoch
//                           folds) may write.
//   NOCSIM_HALO_ONLY        outbox matrices: [src tile][dst tile] staging
//                           for cross-tile writes, applied by the owning
//                           tile in a later phase.
//   NOCSIM_PHASE_OWNED(p)   state only the named phase may write.
//
// The markers trail the declarator, before the initializer/semicolon:
//
//   std::vector<Ni> nis_ NOCSIM_TILE_LOCAL;
//   Cycle now_ NOCSIM_SHARED_READONLY = 0;
//
// The table is keyed by symbol name (the analyzer is token-level, not a
// real C++ front end), so two members of the same name in different classes
// must carry the same annotation — a deliberate naming constraint.
//
// NOCSIM_PHASE declares a phase body:
//
//   team_->run([this](int t) {
//     NOCSIM_PHASE("route", &*plan_, t);   // static marker + runtime scope
//     ...
//   });
//   void Simulator::inject_tile(int tile) {
//     NOCSIM_PHASE("inject");              // static marker only: the
//     ...                                  // caller already set the scope
//   }
//
// The innermost block containing the marker is the phase region the new
// lint rules (shard-unsafe-write, cross-tile-index, alloc-in-phase) scan.
// The 3-argument form additionally opens a shardcheck::PhaseScope when the
// NOCSIM_SHARD_CHECK build option is ON, attributing this thread's writes
// to (tile, phase) for the runtime shadow checker.
#pragma once

#include "common/shard_check.hpp"

#define NOCSIM_TILE_LOCAL
#define NOCSIM_SHARED_READONLY
#define NOCSIM_HALO_ONLY
#define NOCSIM_PHASE_OWNED(phase)

#define NOCSIM_INTERNAL_CAT2(a, b) a##b
#define NOCSIM_INTERNAL_CAT(a, b) NOCSIM_INTERNAL_CAT2(a, b)

#define NOCSIM_PHASE_MARK_1(name) ((void)0)
#if defined(NOCSIM_SHARD_CHECK)
#define NOCSIM_PHASE_SCOPE_3(name, plan, tile)                                      \
  const ::nocsim::shardcheck::PhaseScope NOCSIM_INTERNAL_CAT(nocsim_phase_scope_,   \
                                                             __LINE__) {            \
    (plan), (tile), (name)                                                          \
  }
#else
#define NOCSIM_PHASE_SCOPE_3(name, plan, tile) ((void)(plan), (void)(tile))
#endif

#define NOCSIM_PHASE_SELECT(a1, a2, a3, chosen, ...) chosen
#define NOCSIM_PHASE(...) \
  NOCSIM_PHASE_SELECT(__VA_ARGS__, NOCSIM_PHASE_SCOPE_3, NOCSIM_PHASE_BAD_ARITY, \
                      NOCSIM_PHASE_MARK_1)(__VA_ARGS__)
