# Runs `PROGRAM FLAG VALUE` and passes iff the program exits 1 with a
# stderr line naming FLAG -- a malformed flag must refuse to run, never
# fall back to a default.
#
#   cmake -DPROGRAM=path -DFLAG=--requests -DVALUE=abc -P expect_flag_error.cmake
execute_process(COMMAND "${PROGRAM}" "${FLAG}" "${VALUE}"
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE stderr
                TIMEOUT 60)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "${FLAG} ${VALUE}: expected exit 1, got '${status}'")
endif()
string(FIND "${stderr}" "${FLAG}:" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${FLAG} ${VALUE}: stderr does not name the flag: "
                      "${stderr}")
endif()
