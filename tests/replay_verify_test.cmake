# Record/replay guard for benches whose stdout carries wall-clock timings
# and therefore has no golden hash (e.g. bench_scale's ns/signal columns).
# The invariant checked is the journal one only: every journal recorded by
# `bench --smoke --record-journal` must replay bit-identical (exit 0 and a
# VERIFIED line).  Benches with deterministic stdout use the stronger
# replay_bench_test.cmake, which also pins the golden hash.
#
# Usage (wired up by tests/CMakeLists.txt):
#   cmake -DBENCH=<binary> -DWORKDIR=<scratch dir> -P replay_verify_test.cmake
if(NOT DEFINED BENCH OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR
          "usage: cmake -DBENCH=<bench binary> -DWORKDIR=<scratch dir> "
          "-P replay_verify_test.cmake")
endif()

file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

execute_process(
  COMMAND ${BENCH} --smoke --record-journal ${WORKDIR}
  OUTPUT_VARIABLE bench_out
  RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR
          "${BENCH} --smoke --record-journal exited with status ${bench_rc}:\n"
          "${bench_out}")
endif()

file(GLOB journals ${WORKDIR}/*.journal)
list(LENGTH journals n_journals)
if(n_journals EQUAL 0)
  message(FATAL_ERROR "no journals recorded in ${WORKDIR}")
endif()

# Replay every journal: the smoke grid covers both census reservoir sizes
# (the default and 256) and both gateway disciplines, and each must verify.
foreach(journal IN LISTS journals)
  execute_process(
    COMMAND ${BENCH} --replay ${journal}
    OUTPUT_VARIABLE replay_out
    RESULT_VARIABLE replay_rc)
  if(NOT replay_rc EQUAL 0)
    message(FATAL_ERROR
            "${BENCH} --replay ${journal} exited with status ${replay_rc}:\n"
            "${replay_out}")
  endif()
  if(NOT replay_out MATCHES "VERIFIED bit-identical")
    message(FATAL_ERROR
            "${BENCH} --replay ${journal} did not report a verified replay:\n"
            "${replay_out}")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORKDIR})
