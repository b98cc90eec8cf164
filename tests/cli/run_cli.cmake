# Runs a command-line program (exact_sum_cli, a bench harness) once with
# stdin from a fixture and checks the outcome.
#
#   cmake -DCLI=<program> -DINPUT=<file> -DEXPECT_RC=<status>
#         [-DARGS=<arg;...>] [-DGOLDEN=<file>] [-DSTDOUT_REGEX=<regex>]
#         [-DSTDERR_REGEX=<regex>] [-DEXPECT_JSON=<file;...>]
#         -P run_cli.cmake
#
# GOLDEN is compared byte for byte with stdout minus the "audit telemetry"
# line, whose counts depend on HPSUM_TRACE and HPSUM_SIMD. A crash or an
# abort fails the EXPECT_RC check: its result is a message, not a number.
# Each EXPECT_JSON file is deleted before the run and must exist and parse
# as JSON after it.
if(DEFINED EXPECT_JSON)
  file(REMOVE ${EXPECT_JSON})
endif()
execute_process(
  COMMAND ${CLI} ${ARGS}
  INPUT_FILE ${INPUT}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc STREQUAL EXPECT_RC)
  message(FATAL_ERROR "exit status '${rc}', expected ${EXPECT_RC}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED GOLDEN)
  file(READ ${GOLDEN} want)
  string(REGEX REPLACE "audit telemetry  :[^\n]*\n" "" out "${out}")
  if(NOT out STREQUAL want)
    message(FATAL_ERROR "stdout differs from ${GOLDEN}\n"
                        "got:\n${out}\nwant:\n${want}")
  endif()
endif()
if(DEFINED STDOUT_REGEX AND NOT out MATCHES "${STDOUT_REGEX}")
  message(FATAL_ERROR "stdout does not match '${STDOUT_REGEX}':\n${out}")
endif()
if(DEFINED STDERR_REGEX AND NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "stderr does not match '${STDERR_REGEX}':\n${err}")
endif()
foreach(json IN LISTS EXPECT_JSON)
  if(NOT EXISTS ${json})
    message(FATAL_ERROR "expected export ${json} was not written")
  endif()
  file(READ ${json} body)
  string(JSON kind ERROR_VARIABLE jerr TYPE "${body}")
  if(jerr)
    message(FATAL_ERROR "${json} does not parse as JSON: ${jerr}")
  endif()
endforeach()
