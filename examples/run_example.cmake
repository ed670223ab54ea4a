# Runs one example as a test: fails unless EXAMPLE exits 0 and, when EXPECT
# is set, its standard output matches the regular expression EXPECT.
#
#   cmake -DEXAMPLE=<binary> [-DEXPECT=<regex>] -P run_example.cmake
execute_process(COMMAND "${EXAMPLE}" RESULT_VARIABLE status
                OUTPUT_VARIABLE out)
message("${out}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${status}")
endif()
if(DEFINED EXPECT AND NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "${EXAMPLE}: no output line matches '${EXPECT}'")
endif()
