# Perf-regression gate (ROADMAP "One perf harness, cost attributed per
# layer, and a gate that can fail"): run `bench_engine --trajectory`
# fresh and compare its headline throughput metrics against the checked-in
# repo-root BENCH_engine.json snapshot.  A fresh metric more than 15% below
# the snapshot emits a CMake WARNING — visible in the ctest log — but does
# NOT fail the test: shared CI machines make hard throughput gates too
# flaky, and the snapshot itself is regenerated (tools/regen_results.sh) on
# machines that don't match CI.  The test FAILS only when the bench itself
# fails or emits no trajectory.
#
# Invoked by ctest as:
#   cmake -DBENCH=<bench_engine> -DBASELINE=<BENCH_engine.json>
#         -DWORKDIR=<scratch> -P perf_gate_test.cmake
#
# Compatibility: the project's cmake_minimum_required is 3.16, which has no
# string(JSON) and whose math() is integer-only — metrics are regex-parsed
# and the 0.85x threshold comparison is delegated to awk (skipped with a
# notice on hosts without awk).

if(NOT DEFINED BENCH OR NOT DEFINED BASELINE OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "perf_gate_test: need -DBENCH, -DBASELINE, -DWORKDIR")
endif()
if(NOT EXISTS "${BASELINE}")
  message(FATAL_ERROR "perf_gate_test: baseline snapshot ${BASELINE} missing")
endif()

file(MAKE_DIRECTORY "${WORKDIR}")
set(FRESH "${WORKDIR}/engine-trajectory.json")
file(REMOVE "${FRESH}")

execute_process(
  COMMAND "${BENCH}" --trajectory "${FRESH}"
  RESULT_VARIABLE bench_status
  OUTPUT_VARIABLE bench_out
  ERROR_VARIABLE bench_err)
if(NOT bench_status EQUAL 0)
  message(FATAL_ERROR
          "perf_gate: ${BENCH} exited ${bench_status}\n${bench_out}\n${bench_err}")
endif()
if(NOT EXISTS "${FRESH}")
  message(FATAL_ERROR "perf_gate: bench emitted no trajectory at ${FRESH}")
endif()

# Extracts `"case.metric": <number>` pairs; keys land in <prefix>_keys and
# values in <prefix>_<key>.  Only dotted keys match, which selects exactly
# the per-case throughput metrics and skips config scalars like "seed".
# Key segments may carry hyphens and further dots (the workload snapshot
# uses "sack-ftp.droptail.jain_min"-shaped keys).
function(parse_metrics json_path prefix)
  file(READ "${json_path}" raw)
  string(REGEX MATCHALL
         "\"[A-Za-z0-9_-]+(\\.[A-Za-z0-9_-]+)+\"[ \t]*:[ \t]*[-+.0-9eE]+"
         pairs "${raw}")
  set(keys "")
  foreach(pair IN LISTS pairs)
    string(REGEX REPLACE "\"([A-Za-z0-9_.-]+)\".*" "\\1" key "${pair}")
    string(REGEX REPLACE ".*:[ \t]*([-+.0-9eE]+)" "\\1" val "${pair}")
    list(APPEND keys "${key}")
    set(${prefix}_${key} "${val}" PARENT_SCOPE)
  endforeach()
  set(${prefix}_keys "${keys}" PARENT_SCOPE)
endfunction()

parse_metrics("${BASELINE}" base)
parse_metrics("${FRESH}" fresh)

list(LENGTH base_keys n_base)
if(n_base EQUAL 0)
  message(FATAL_ERROR "perf_gate: no metrics parsed from ${BASELINE}")
endif()

find_program(AWK awk)
if(NOT AWK)
  message(STATUS "perf_gate: awk not found; parsed ${n_base} baseline metrics, "
                 "skipping threshold comparison")
  return()
endif()

set(regressions 0)
foreach(key IN LISTS base_keys)
  if(NOT DEFINED fresh_${key})
    message(WARNING "perf_gate: metric ${key} in snapshot but missing from "
                    "fresh run — bench output drifted?")
    continue()
  endif()
  # verdict = 1 when fresh < 0.85 * baseline (a >15% throughput drop).
  execute_process(
    COMMAND "${AWK}" "BEGIN { print (${fresh_${key}} < 0.85 * ${base_${key}}) ? 1 : 0 }"
    OUTPUT_VARIABLE below
    OUTPUT_STRIP_TRAILING_WHITESPACE)
  if(below STREQUAL "1")
    math(EXPR regressions "${regressions} + 1")
    message(WARNING "perf_gate: ${key} fell >15% below the checked-in "
                    "snapshot: ${fresh_${key}} vs baseline ${base_${key}} "
                    "(regenerate ${BASELINE} via tools/regen_results.sh "
                    "if intentional)")
  endif()
endforeach()

if(regressions EQUAL 0)
  message(STATUS "perf_gate: ${n_base} metrics within 15% of ${BASELINE}")
else()
  message(STATUS "perf_gate: ${regressions} metric(s) below threshold (warned, "
                 "not failed)")
endif()
