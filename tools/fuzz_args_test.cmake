# tp_fuzz takes only well-formed numbers: `--cases` and `--emit-corpus` a
# positive integer, `--seed` a whole unsigned 64-bit integer (decimal or
# 0x hex) and `--budget-s` a finite number of seconds above 0. Anything
# else is bad usage (exit 2), never a silent default: "abc" cases would run
# none and pass, "3x" would run 3, "zz" would seed 0 and "-1" cases would
# wrap to 2^64 - 1. Each malformed run carries `--cases 2` or a 1 s budget
# so that, were it accepted, it would still finish fast. A well-formed run
# exits 0.
#
#   cmake -DTP_FUZZ=<tp_fuzz> -DWORK_DIR=<dir> -P fuzz_args_test.cmake

set(corpus "${WORK_DIR}/fuzz_args_test_corpus")
file(REMOVE_RECURSE "${corpus}")

# Runs tp_fuzz with the arguments that follow `what` and expects exit 2.
function(expect_usage_error what)
  execute_process(COMMAND "${TP_FUZZ}" --quiet ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${what} exited ${rc}, expected 2")
  endif()
endfunction()

foreach(bad "abc" "3x" "-1" "0" "+2" " 2" "99999999999999999999999")
  expect_usage_error("--cases '${bad}'" --cases "${bad}" --budget-s 1)
  expect_usage_error("--emit-corpus '${bad}'" --emit-corpus "${bad}" --corpus-append
                     "${corpus}" --cases 2)
endforeach()
foreach(bad "zz" "7x" "-1" " 7" "0x" "99999999999999999999999")
  expect_usage_error("--seed '${bad}'" --seed "${bad}" --cases 2)
endforeach()
foreach(bad "abc" "1.5x" "0" "-1" "nan" "inf")
  expect_usage_error("--budget-s '${bad}'" --budget-s "${bad}" --cases 2)
endforeach()
if(EXISTS "${corpus}")
  message(FATAL_ERROR "a refused --emit-corpus run wrote ${corpus}")
endif()

# Runs tp_fuzz with the arguments that follow `what` and expects exit 0.
function(expect_clean_run what)
  execute_process(COMMAND "${TP_FUZZ}" --quiet ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${what} exited ${rc}, expected 0\n${out}${err}")
  endif()
endfunction()

expect_clean_run("--cases 2 --seed 7" --cases 2 --seed 7)
expect_clean_run("--cases 2 --seed 0x7 --budget-s 30" --cases 2 --seed 0x7 --budget-s 30)
