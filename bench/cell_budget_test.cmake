# `tp_bench --cell-budget-ms` and the TP_CELL_BUDGET_MS variable take a
# positive whole number of milliseconds. Anything else is bad usage (exit 2),
# never a watchdog silently switched off ("abc", "0.5" and "0" would read as
# 0) or set to centuries ("-1"). An unset or empty variable means off.
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

foreach(bad "abc" "0.5" "-1" "0")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env "TP_CELL_BUDGET_MS=${bad}" "${TP_BENCH}" --list
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "TP_CELL_BUDGET_MS='${bad}' exited ${rc}, expected 2")
  endif()
endforeach()

foreach(good "250" "")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env "TP_CELL_BUDGET_MS=${good}" "${TP_BENCH}" --list
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "TP_CELL_BUDGET_MS='${good}' exited ${rc}, expected 0")
  endif()
endforeach()

execute_process(
  COMMAND "${TP_BENCH}" --cell-budget-ms 250 --list
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--cell-budget-ms 250 exited ${rc}, expected 0")
endif()
