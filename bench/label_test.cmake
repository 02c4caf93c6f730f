# A recorded label is one whole tp_bench run, judged by tp_bench_diff.
#
# A run whose Sabre cells of table2_flush_cost are crash-isolated exits 3
# and records each cell exactly once, 2 of them failed. tp_bench_diff then
# refuses that label as a baseline (exit 2) and fails it as a candidate
# against a healthy label (exit 1). In between, the label rule holds: a
# rerun under the recorded label, a run without a label or with an empty
# one, and a run into a results file the loader refuses (cut short, or
# holding an invalid record) all exit 2 before any channel runs and leave
# their file byte-identical, as does the retired resume flag. A run whose
# records the results file cannot take exits 1.
#
#   cmake -DTP_BENCH=<tp_bench> -DTP_BENCH_DIFF=<tp_bench_diff> -DWORK_DIR=<dir>
#         -P label_test.cmake

set(json "${WORK_DIR}/label_test.json")
set(label "label-test")
file(REMOVE "${json}")
set(ENV{TP_BENCH_JSON} "${json}")
set(ENV{TP_BENCH_LABEL} "${label}")
set(expected_cells "Haswell (x86)/L1" "Haswell (x86)/full" "Sabre (Arm)/L1" "Sabre (Arm)/full")
list(SORT expected_cells)

execute_process(
  COMMAND "${TP_BENCH}" --only table2_flush_cost --quiet --inject harness.cell_throw:Sabre
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "injected run exited ${rc}, expected 3 (cells crash-isolated)")
endif()

# The records of table2_flush_cost under the label: the sorted names of its
# cells ("total" aside) and how many of them carry a cell_status.
file(READ "${json}" text)
string(JSON n LENGTH "${text}")
math(EXPR last "${n} - 1")
set(cells "")
set(failed 0)
foreach(i RANGE ${last})
  string(JSON bench GET "${text}" ${i} bench)
  string(JSON record_label GET "${text}" ${i} label)
  string(JSON cell GET "${text}" ${i} cell)
  if(NOT bench STREQUAL "table2_flush_cost" OR NOT record_label STREQUAL label
     OR cell STREQUAL "total")
    continue()
  endif()
  list(APPEND cells "${cell}")
  # A healthy cell records no cell_status.
  string(JSON status ERROR_VARIABLE no_status GET "${text}" ${i} cell_status)
  if(NOT no_status)
    math(EXPR failed "${failed} + 1")
  endif()
endforeach()
list(SORT cells)
if(NOT failed EQUAL 2 OR NOT cells STREQUAL expected_cells)
  message(FATAL_ERROR "injected run recorded cells '${cells}' with ${failed} failed; "
                      "expected each of '${expected_cells}' once, 2 failed")
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

expect_refused("a rerun under the recorded label" "${json}")
# A label is recorded in one run: the retired flag that completed one in
# place is an unknown option.
set(retired resume)
file(SHA256 "${json}" before)
execute_process(COMMAND "${TP_BENCH}" --only table2_flush_cost --quiet "--${retired}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
file(SHA256 "${json}" after)
if(NOT rc EQUAL 2 OR NOT before STREQUAL after)
  message(FATAL_ERROR "--${retired} exited ${rc}, expected 2 with ${json} untouched")
endif()
expect_refused("a run with no label" "${json}" --unset=TP_BENCH_LABEL)
expect_refused("a run with an empty label" "${json}" "TP_BENCH_LABEL=")
set(cut_short "${WORK_DIR}/label_test_cut_short.json")
file(WRITE "${cut_short}" "[{\"bench\": \"table2_flush_cost\", \"label\": ")
expect_refused("a run into a file that does not parse" "${cut_short}"
               "TP_BENCH_JSON=${cut_short}" "TP_BENCH_LABEL=fresh")
file(REMOVE "${cut_short}" "${cut_short}.lock")
# Balanced braces are not enough: a record tp_bench_diff cannot parse (here
# a trailing comma) refuses the run just as a cut-short file does.
set(invalid "${WORK_DIR}/label_test_invalid_record.json")
file(WRITE "${invalid}" "[\n{\"schema_version\": 3, \"bench\": \"x\", \"label\": \"old\", "
                        "\"cell\": \"c\", \"quick\": true,}\n]\n")
expect_refused("a run into a file with an invalid record" "${invalid}"
               "TP_BENCH_JSON=${invalid}" "TP_BENCH_LABEL=new")
file(REMOVE "${invalid}" "${invalid}.lock")

# The crash-isolated label judged by the one gate, against a healthy run.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env TP_BENCH_LABEL=healthy "${TP_BENCH}"
          --only table2_flush_cost --quiet
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "healthy run exited ${rc}, expected 0")
endif()
function(expect_diff want baseline candidate)
  execute_process(
    COMMAND "${TP_BENCH_DIFF}" --json "${json}" --quiet --wall-ratio 1000 "${baseline}"
            "${candidate}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL want)
    message(FATAL_ERROR "tp_bench_diff ${baseline} ${candidate} exited ${rc}, expected "
                        "${want}\n${out}${err}")
  endif()
endfunction()
expect_diff(2 "${label}" healthy)
expect_diff(1 healthy "${label}")
file(REMOVE "${json}" "${json}.lock")

# A results path the Recorder cannot replace (here a directory) drops the
# channel's records: the run fails instead of passing with nothing written.
set(unwritable "${WORK_DIR}/label_test_unwritable.json")
file(REMOVE_RECURSE "${unwritable}")
file(MAKE_DIRECTORY "${unwritable}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "TP_BENCH_JSON=${unwritable}" "${TP_BENCH}"
          --only table1_platforms --quiet
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
file(REMOVE_RECURSE "${unwritable}" "${unwritable}.lock")
if(NOT rc EQUAL 1 OR NOT out MATCHES "records not written")
  message(FATAL_ERROR "a run whose records were not written exited ${rc}, expected 1\n${out}")
endif()
