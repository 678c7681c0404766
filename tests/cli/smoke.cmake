# CLI smoke test for cac_sim, run as:
#   cmake -DSIM=<cac_sim> -DTRACEGEN=<cac_tracegen> -P smoke.cmake
#
# Guards the flag-error contract: unknown flags and missing values must
# print the *full* usage (including the analysis-layer flags) to stderr
# and exit non-zero, and --analyze must work without a trace. It also
# holds every mode that reads --trace to the reader options on a
# damaged read. A plain CMake script so the check needs no extra test
# dependency.

if(NOT DEFINED SIM OR NOT DEFINED TRACEGEN)
  message(FATAL_ERROR
          "pass -DSIM=<path-to-cac_sim> -DTRACEGEN=<path-to-cac_tracegen>")
endif()

# 1. Unknown flag: non-zero exit, diagnostic, full usage text.
execute_process(COMMAND ${SIM} --definitely-not-a-flag
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown flag exited 0")
endif()
if(NOT err MATCHES "unknown argument '--definitely-not-a-flag'")
  message(FATAL_ERROR "unknown flag not diagnosed: ${err}")
endif()
foreach(flag --analyze --search --stream --l2-size --l2-ways --threads
        --scenario --cores --metrics-out --trace-out --obs-window
        --version)
  if(NOT err MATCHES "${flag}")
    message(FATAL_ERROR "usage text is missing ${flag}: ${err}")
  endif()
endforeach()

# 2. Flag with a missing value: non-zero exit plus a diagnostic.
execute_process(COMMAND ${SIM} --trace
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "missing flag value exited 0")
endif()
if(NOT err MATCHES "missing value for '--trace'")
  message(FATAL_ERROR "missing value not diagnosed: ${err}")
endif()

# 3. No arguments at all: usage, non-zero.
execute_process(COMMAND ${SIM}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "bare invocation exited 0")
endif()

# 4. --search without --trace: diagnosed, non-zero.
execute_process(COMMAND ${SIM} --search
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "--search without --trace exited 0")
endif()
if(NOT err MATCHES "--search requires --trace")
  message(FATAL_ERROR "--search without --trace not diagnosed: ${err}")
endif()

# 5. --analyze works standalone (no trace) and prints the certificate.
execute_process(COMMAND ${SIM} --analyze a2-Hp-Sk
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--analyze a2-Hp-Sk failed (${rc}): ${err}")
endif()
if(NOT out MATCHES "stride-freeness certificate: PASS")
  message(FATAL_ERROR "--analyze output missing certificate: ${out}")
endif()
if(NOT out MATCHES "conflict-free")
  message(FATAL_ERROR "--analyze output missing stride table: ${out}")
endif()

# 6. --scenario with an unknown workload: a clear diagnostic naming
#    the bad atom and the known labels, non-zero exit — never a
#    silently empty grid.
execute_process(COMMAND ${SIM} --scenario mix:swimm+tomcatv@q=5k
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "--scenario with unknown workload exited 0")
endif()
if(NOT err MATCHES "unknown workload 'swimm'")
  message(FATAL_ERROR "unknown scenario workload not diagnosed: ${err}")
endif()
if(NOT err MATCHES "known:.*swim.*strideN.*trace:PATH")
  message(FATAL_ERROR
          "diagnostic does not list the known workloads: ${err}")
endif()

# 7. A malformed scenario option is diagnosed too.
execute_process(COMMAND ${SIM} --scenario mix:swim@zz=1
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "--scenario with bad option exited 0")
endif()
if(NOT err MATCHES "bad option 'zz=1'")
  message(FATAL_ERROR "bad scenario option not diagnosed: ${err}")
endif()

# 8. A tiny mix runs end to end and reports per-program attribution
#    rows plus the aggregate.
execute_process(COMMAND ${SIM} --scenario mix:li+compress@q=4k,n=16k
                        --org a2
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--scenario smoke run failed (${rc}): ${err}")
endif()
foreach(row li compress <all> switches)
  if(NOT out MATCHES "${row}")
    message(FATAL_ERROR "--scenario output missing '${row}': ${out}")
  endif()
endforeach()

# 9. --version prints the manifest (provenance + schema line), exit 0.
execute_process(COMMAND ${SIM} --version
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--version failed (${rc}): ${err}")
endif()
foreach(field cac_sim compiler "index dispatch" "metrics=1" CACTRC02)
  if(NOT out MATCHES "${field}")
    message(FATAL_ERROR "--version output missing '${field}': ${out}")
  endif()
endforeach()

# 10. The telemetry artifacts are emitted: a scenario run with
#     --metrics-out/--trace-out must write both files, stamped with
#     the manifest, spans and at least one time-series window.
set(obs_dir ${CMAKE_CURRENT_BINARY_DIR}/smoke_obs)
file(MAKE_DIRECTORY ${obs_dir})
execute_process(COMMAND ${SIM} --scenario mix:li+compress@q=4k,n=16k
                        --org a2
                        --metrics-out ${obs_dir}/metrics.json
                        --trace-out ${obs_dir}/trace.json
                        --obs-window 4096
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "observability smoke run failed (${rc}): ${err}")
endif()
foreach(artifact metrics.json trace.json)
  if(NOT EXISTS ${obs_dir}/${artifact})
    message(FATAL_ERROR "observability run did not write ${artifact}")
  endif()
endforeach()
file(READ ${obs_dir}/metrics.json metrics)
foreach(key "\"manifest\"" "\"counters\"" "\"windows\""
        "\"miss_ratio\"")
  if(NOT metrics MATCHES ${key})
    message(FATAL_ERROR "metrics.json missing ${key}: ${metrics}")
  endif()
endforeach()
file(READ ${obs_dir}/trace.json trace)
foreach(key "\"traceEvents\"" "\"manifest\"")
  if(NOT trace MATCHES "${key}")
    message(FATAL_ERROR "trace.json missing ${key}")
  endif()
endforeach()
# Telemetry is always compiled in: the manifest says so, and the
# counters and spans the run fires are in the artifacts.
if(NOT metrics MATCHES "\"obs_compiled\": true")
  message(FATAL_ERROR "metrics.json manifest lacks obs_compiled: true")
endif()
if(NOT metrics MATCHES "\"scenario.switches\"")
  message(FATAL_ERROR "metrics.json missing counters: ${metrics}")
endif()
foreach(key "\"ph\": \"X\"" "sweep.cell" "scenario.quantum")
  if(NOT trace MATCHES "${key}")
    message(FATAL_ERROR "trace.json missing ${key}")
  endif()
endforeach()
file(REMOVE_RECURSE ${obs_dir})

# 11. Damaged reads (checksum-caught bit flips from a seeded fault
#     injector): --search and --analyze honour the reader options and
#     warn about drops loaded and streamed, a failed search is an error
#     rather than a zero-miss ranking, and a loaded --compare --csv
#     reports the drops exactly as --stream does.
set(dmg_dir ${CMAKE_CURRENT_BINARY_DIR}/smoke_damage)
file(MAKE_DIRECTORY ${dmg_dir})
set(trc ${dmg_dir}/swim.trc)
set(flips --inject seed=5,flip=1e-4)
execute_process(COMMAND ${TRACEGEN} --proxy swim --instructions 20000
                        --out ${trc}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cac_tracegen failed (${rc})")
endif()
execute_process(COMMAND ${SIM} --trace ${trc} --search --stream --csv
                        ${flips}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "error: .*checksum mismatch")
  message(FATAL_ERROR "failed --search exited ${rc}: ${err}")
endif()
execute_process(COMMAND ${SIM} --trace ${trc} --search --stream
                        ${flips}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR out MATCHES "best:")
  message(FATAL_ERROR "failed --search named a best candidate: ${out}")
endif()
# Each mode warns about the drops exactly once; a streamed search
# reads the file once per target group, so its warning comes from the
# results rather than from a whole-file load.
foreach(mode "--search;--csv" "--search;--stream;--csv" "--analyze;a2")
  execute_process(COMMAND ${SIM} --trace ${trc} ${mode} --policy skip
                          ${flips}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  string(REGEX MATCHALL "degraded read" warnings "${err}")
  list(LENGTH warnings nwarnings)
  if(NOT rc EQUAL 0 OR NOT nwarnings EQUAL 1)
    message(FATAL_ERROR "${mode} --policy skip exited ${rc}: ${err}")
  endif()
endforeach()
execute_process(COMMAND ${SIM} --trace ${trc} --compare --csv
                        --policy skip ${flips}
                RESULT_VARIABLE rc OUTPUT_VARIABLE loaded
                ERROR_VARIABLE err)
execute_process(COMMAND ${SIM} --trace ${trc} --compare --csv --stream
                        --policy skip ${flips}
                RESULT_VARIABLE rc_stream OUTPUT_VARIABLE streamed
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT rc_stream EQUAL 0
   OR NOT loaded MATCHES ",dropped_records,status"
   OR NOT loaded STREQUAL streamed)
  message(FATAL_ERROR "degraded loaded and streamed CSVs differ:\n"
                      "${loaded}\n--- streamed ---\n${streamed}")
endif()
file(REMOVE_RECURSE ${dmg_dir})

# 12. Counts are parsed strictly: cac_tracegen rejects a value that is
#     negative, partly numeric, out of range or empty with exit 1 and
#     a message (never an abort or a silently empty trace), and a mix
#     label whose n= exceeds the per-program maximum is a diagnostic
#     rather than an uncaught allocation failure.
set(cnt_dir ${CMAKE_CURRENT_BINARY_DIR}/smoke_counts)
file(MAKE_DIRECTORY ${cnt_dir})
foreach(bad "--instructions;-1" "--instructions;abc" "--instructions;12x"
        "--instructions;1000000000000"
        "--instructions;99999999999999999999" "--seed;-3" "--seed; 7"
        "--chunk;0" "--chunk;1.5")
  execute_process(COMMAND ${TRACEGEN} --proxy swim ${bad}
                          --out ${cnt_dir}/bad.trc
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "bad value")
    message(FATAL_ERROR "cac_tracegen ${bad} exited ${rc}: ${err}")
  endif()
endforeach()
foreach(bad "--stride;-512" "--stride;0" "--elements;0" "--sweeps;x"
        "--elements;100000;--sweeps;100000")
  execute_process(COMMAND ${TRACEGEN} --stride 512 ${bad}
                          --out ${cnt_dir}/bad.trc
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 1 OR err STREQUAL "")
    message(FATAL_ERROR "cac_tracegen ${bad} exited ${rc}: ${err}")
  endif()
endforeach()
if(EXISTS ${cnt_dir}/bad.trc)
  message(FATAL_ERROR "a rejected cac_tracegen count wrote a trace")
endif()
execute_process(COMMAND ${TRACEGEN} --proxy swim --instructions 0x400
                        --seed 0 --chunk 64 --out ${cnt_dir}/ok.trc
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "wrote [1-9][0-9]* instructions")
  message(FATAL_ERROR "cac_tracegen with valid counts exited ${rc}: "
                      "${out}${err}")
endif()
execute_process(COMMAND ${SIM} --scenario "mix:swim@n=1000000000000m"
                        --org a2
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "n exceeds the .*maximum")
  message(FATAL_ERROR "oversized n= exited ${rc}: ${err}")
endif()
file(REMOVE_RECURSE ${cnt_dir})

# 13. cac_sim's numeric flags are just as strict: junk, a size suffix
#     or a sign exits 1 naming the value and the flag, before any work
#     starts (no output), where strtoull used to read a prefix and run
#     on it. A whole-token hex value still parses.
foreach(bad "--warmup;abc" "--size;8k" "--threads;-1")
  list(GET bad 0 flag)
  list(GET bad 1 value)
  execute_process(COMMAND ${SIM} --scenario mix:swim@n=2k --org a2 ${bad}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 1 OR NOT out STREQUAL ""
     OR NOT err MATCHES "bad value '${value}' for ${flag}")
    message(FATAL_ERROR "cac_sim ${bad} exited ${rc}: ${out}${err}")
  endif()
endforeach()
execute_process(COMMAND ${SIM} --scenario mix:swim@n=2k --org a2
                        --size 0x2000 --warmup 0 --threads 1
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cac_sim with valid counts exited ${rc}: ${err}")
endif()

# 14. "mc:" runs each program of a mix on its own core whatever the
#     mix's ASID stride: under asid=4m the coreN rows must count
#     exactly the accesses of the program rows (loads + stores), which
#     holds only when the core window follows the stride.
execute_process(COMMAND ${SIM} --scenario "mix:swim+tomcatv@asid=4m,n=50k"
                        --org mc:2xa2/a4 --csv --threads 1
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "asid=4m mc: run exited ${rc}: ${err}")
endif()
set(program_counts)
set(core_counts)
string(REPLACE "\n" ";" rows "${out}")
foreach(row IN LISTS rows)
  if(row MATCHES "\"([a-z0-9]+)\",[0-9]*,[0-9]+,([0-9]+),([0-9]+),")
    math(EXPR accesses "${CMAKE_MATCH_2} + ${CMAKE_MATCH_3}")
    if(CMAKE_MATCH_1 MATCHES "^core[0-9]+$")
      list(APPEND core_counts ${accesses})
    else()
      list(APPEND program_counts ${accesses})
    endif()
  endif()
endforeach()
list(SORT program_counts)
list(SORT core_counts)
list(LENGTH core_counts ncores)
if(NOT ncores EQUAL 2 OR NOT core_counts STREQUAL program_counts)
  message(FATAL_ERROR "asid=4m mc: cores [${core_counts}] do not carry "
                      "the programs [${program_counts}]: ${out}")
endif()

message(STATUS "cac_sim CLI smoke: all checks passed")
