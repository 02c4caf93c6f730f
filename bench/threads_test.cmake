# TP_THREADS takes a positive whole number. Anything else is bad usage
# (exit 2) in tp_bench and tp_mutate before they do anything, never a
# silent fallback: "abc", "-1" and "0" would run on every core and "4x" on
# 4, so a typo in the serial baseline sweep would compare two parallel
# sweeps. An unset or empty variable means every core.
#
#   cmake -DTP_BENCH=<tp_bench> -DTP_MUTATE=<tp_mutate> -P threads_test.cmake

foreach(bad "abc" "4x" "-1" "0")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env "TP_THREADS=${bad}" "${TP_BENCH}" --list
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "tp_bench with TP_THREADS='${bad}' exited ${rc}, expected 2")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env "TP_THREADS=${bad}" "${TP_MUTATE}"
            --only fig5_flush_channel --site harness.cell_throw
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "tp_mutate with TP_THREADS='${bad}' exited ${rc}, expected 2")
  endif()
endforeach()

foreach(good "4" "")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env "TP_THREADS=${good}" "${TP_BENCH}" --list
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tp_bench with TP_THREADS='${good}' exited ${rc}, expected 0")
  endif()
endforeach()
