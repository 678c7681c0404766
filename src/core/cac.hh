/**
 * @file
 * Umbrella header: the public API of the conflict-avoiding cache
 * library. Examples and downstream users include just this.
 */

#ifndef CAC_CORE_CAC_HH
#define CAC_CORE_CAC_HH

#include "analysis/conflict_analyzer.hh"
#include "analysis/conflict_profiler.hh"
#include "analysis/index_search.hh"
#include "cache/cache_model.hh"
#include "cache/fully_assoc.hh"
#include "cache/geometry.hh"
#include "cache/mshr.hh"
#include "cache/set_assoc.hh"
#include "cache/two_probe.hh"
#include "cache/victim.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "core/registry.hh"
#include "core/shard_replay.hh"
#include "core/sim_target.hh"
#include "core/sweep.hh"
#include "cpu/addr_predictor.hh"
#include "cpu/branch_predictor.hh"
#include "cpu/config.hh"
#include "cpu/ooo_core.hh"
#include "cpu/timing_cache.hh"
#include "hierarchy/hole_model.hh"
#include "hierarchy/page_map.hh"
#include "index/factory.hh"
#include "index/index_fn.hh"
#include "index/index_plan.hh"
#include "index/ipoly.hh"
#include "index/matrix_index.hh"
#include "index/xor_skew.hh"
#include "multicore/coherent_system.hh"
#include "multicore/mc_target.hh"
#include "obs/obs.hh"
#include "poly/catalog.hh"
#include "scenario/scenario.hh"
#include "serve/advisor.hh"
#include "serve/client.hh"
#include "serve/memo_cache.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "poly/gf2poly.hh"
#include "poly/xor_matrix.hh"
#include "trace/builder.hh"
#include "trace/io.hh"
#include "trace/record.hh"
#include "workloads/spec_proxy.hh"
#include "workloads/stride.hh"

#endif // CAC_CORE_CAC_HH
