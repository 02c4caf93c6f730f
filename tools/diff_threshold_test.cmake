# `tp_bench_diff --wall-ratio X` takes a finite number above 0 and
# `--max-mi-delta X` a finite number of at least 0. Anything else is bad
# usage (exit 2), never a gate silently changed: "abc" would read as 0,
# "-1" would fail every joined MI cell and "1.5x" would read as 1.5. The
# retired opt-in flags --require-{wall,contract,cells} and the retired
# coverage verb with its --channels are unknown options (exit 2): every
# rule is always on. pr2-serial-baseline and pr2-parallel-t4 record
# bit-identical MI, so the same diff with valid thresholds passes.
#
#   cmake -DTP_BENCH_DIFF=<tp_bench_diff> -DRESULTS=<BENCH_results.json>
#         -P diff_threshold_test.cmake

set(labels pr2-serial-baseline pr2-parallel-t4)

foreach(bad "abc" "-1" "1.5x" "nan")
  execute_process(
    COMMAND "${TP_BENCH_DIFF}" --json "${RESULTS}" --quiet --wall-ratio "${bad}"
            --max-mi-delta 0 ${labels}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--wall-ratio '${bad}' exited ${rc}, expected 2")
  endif()
  execute_process(
    COMMAND "${TP_BENCH_DIFF}" --json "${RESULTS}" --quiet --wall-ratio 1000
            --max-mi-delta "${bad}" ${labels}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--max-mi-delta '${bad}' exited ${rc}, expected 2")
  endif()
endforeach()

set(retired --channels)
foreach(rule wall contract cells)
  list(APPEND retired "--require-${rule}")
endforeach()
foreach(verb coverage)
  list(APPEND retired "--check-${verb}")
endforeach()
foreach(removed ${retired})
  execute_process(
    COMMAND "${TP_BENCH_DIFF}" --json "${RESULTS}" --quiet --wall-ratio 1000 ${removed} ${labels}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "retired option '${removed}' exited ${rc}, expected 2")
  endif()
endforeach()

execute_process(
  COMMAND "${TP_BENCH_DIFF}" --json "${RESULTS}" --quiet --wall-ratio 1000 --max-mi-delta 0
          ${labels}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--wall-ratio 1000 --max-mi-delta 0 exited ${rc}, expected 0\n${out}${err}")
endif()
