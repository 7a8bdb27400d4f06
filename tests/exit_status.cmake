# Run a bench or example and check its exit status and its output
# streams. The Tool.* tests use it to hold every tool to one exit
# policy: a bad flag or a malformed value exits 2 and prints nothing
# on stdout.
#
# Usage:
#   cmake -DTOOL=<binary> [-DARGS="<flags>"] [-DSTATUS=<code>] \
#         [-DSTDERR=<expected stderr>] -P exit_status.cmake
#
# STATUS defaults to 2. Any stdout fails the check. STDERR, when
# given, must equal the whole of stderr, less its final newline.

cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED TOOL)
    message(FATAL_ERROR "exit_status.cmake needs -DTOOL")
endif()
if(NOT DEFINED STATUS)
    set(STATUS 2)
endif()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
    COMMAND ${TOOL} ${args}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)

if(NOT "${rc}" STREQUAL "${STATUS}")
    message(FATAL_ERROR
        "${TOOL} ${ARGS} exited with ${rc}, expected ${STATUS}\n${err}")
endif()
if(NOT "${out}" STREQUAL "")
    message(FATAL_ERROR "${TOOL} ${ARGS} printed on stdout:\n${out}")
endif()
if(DEFINED STDERR AND NOT "${err}" STREQUAL "${STDERR}\n")
    message(FATAL_ERROR
        "${TOOL} ${ARGS} stderr:\n${err}expected:\n${STDERR}")
endif()
