# `tp_bench --resume` on a cost spec: a run whose Sabre cells were
# crash-isolated leaves an incomplete spec, and the resumed run reruns it
# whole, so every cell is recorded exactly once and healthy. In between,
# the label rule holds: a plain rerun under the recorded label, a run
# without a label and a run into a results file that does not parse all
# exit 2 before any channel runs, and leave their file byte-identical.
#
#   cmake -DTP_BENCH=<tp_bench> -DWORK_DIR=<dir> -P resume_test.cmake

set(json "${WORK_DIR}/resume_test.json")
set(label "resume-test")
file(REMOVE "${json}")
set(ENV{TP_BENCH_JSON} "${json}")
set(ENV{TP_BENCH_LABEL} "${label}")
set(cells "Haswell (x86)/L1" "Haswell (x86)/full" "Sabre (Arm)/L1" "Sabre (Arm)/full")

# Reads the records of table2_flush_cost under the label: the sorted names
# of its ok cells, its count of non-ok cells and its count of "total"s.
function(read_records)
  file(READ "${json}" text)
  string(JSON n LENGTH "${text}")
  math(EXPR last "${n} - 1")
  set(ok_cells "")
  set(failed 0)
  set(totals 0)
  foreach(i RANGE ${last})
    string(JSON bench GET "${text}" ${i} bench)
    string(JSON record_label GET "${text}" ${i} label)
    if(NOT bench STREQUAL "table2_flush_cost" OR NOT record_label STREQUAL label)
      continue()
    endif()
    string(JSON cell GET "${text}" ${i} cell)
    # A healthy cell records no cell_status.
    string(JSON status ERROR_VARIABLE no_status GET "${text}" ${i} cell_status)
    if(cell STREQUAL "total")
      math(EXPR totals "${totals} + 1")
    elseif(no_status)
      list(APPEND ok_cells "${cell}")
    else()
      math(EXPR failed "${failed} + 1")
    endif()
  endforeach()
  list(SORT ok_cells)
  set(ok_cells "${ok_cells}" PARENT_SCOPE)
  set(failed ${failed} PARENT_SCOPE)
  set(totals ${totals} PARENT_SCOPE)
endfunction()

execute_process(
  COMMAND "${TP_BENCH}" --only table2_flush_cost --quiet --inject harness.cell_throw:Sabre
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "injected run exited ${rc}, expected 3 (cells crash-isolated)")
endif()
read_records()
if(NOT failed EQUAL 2)
  message(FATAL_ERROR "injected run recorded ${failed} failed cells, expected 2")
endif()

# Runs tp_bench under the `cmake -E env` arguments that follow `file` and
# expects exit 2 with `file` byte-identical.
function(expect_refused what file)
  file(SHA256 "${file}" before)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${ARGN} "${TP_BENCH}" --only table2_flush_cost --quiet
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  file(SHA256 "${file}" after)
  if(NOT rc EQUAL 2 OR NOT before STREQUAL after)
    message(FATAL_ERROR "${what} exited ${rc}, expected 2 with ${file} untouched")
  endif()
endfunction()

expect_refused("a plain rerun under the recorded label" "${json}")
expect_refused("a run with no label" "${json}" --unset=TP_BENCH_LABEL)
expect_refused("a run with an empty label" "${json}" "TP_BENCH_LABEL=")
set(cut_short "${WORK_DIR}/resume_test_cut_short.json")
file(WRITE "${cut_short}" "[{\"bench\": \"table2_flush_cost\", \"label\": ")
expect_refused("a run into a file that does not parse" "${cut_short}"
               "TP_BENCH_JSON=${cut_short}" "TP_BENCH_LABEL=fresh")
file(REMOVE "${cut_short}" "${cut_short}.lock")

execute_process(
  COMMAND "${TP_BENCH}" --only table2_flush_cost --quiet --resume
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resumed run exited ${rc}, expected 0")
endif()
read_records()
list(SORT cells)
if(NOT failed EQUAL 0 OR NOT totals EQUAL 1 OR NOT ok_cells STREQUAL cells)
  message(FATAL_ERROR "after resume: ok cells '${ok_cells}', ${failed} failed, ${totals} "
                      "totals; expected each of '${cells}' once, 0 failed and 1 total")
endif()
file(REMOVE "${json}")
