# `tp_bench --cell-budget-ms` takes a positive whole number of milliseconds.
# Anything else is bad usage (exit 2), never a watchdog silently switched
# off ("abc", "0.5" and "0" would read as 0) or set to centuries ("-1").
#
#   cmake -DTP_BENCH=<tp_bench> -P cell_budget_test.cmake

foreach(bad "abc" "0.5" "-1" "0" "")
  execute_process(
    COMMAND "${TP_BENCH}" --cell-budget-ms "${bad}" --list
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--cell-budget-ms '${bad}' exited ${rc}, expected 2")
  endif()
endforeach()

execute_process(
  COMMAND "${TP_BENCH}" --cell-budget-ms 250 --list
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--cell-budget-ms 250 exited ${rc}, expected 0")
endif()
