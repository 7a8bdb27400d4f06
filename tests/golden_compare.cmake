# Byte-compare a figure bench's stdout against its recorded file in
# results/. The recorded figures are the project's ground truth: any
# code change that perturbs them must either be a bug or re-record
# them deliberately (see EXPERIMENTS.md).
#
# Usage:
#   cmake -DBENCH=<bench binary> -DGOLDEN=<recorded file> \
#         [-DARGS="<bench flags>"] [-DMASK=<col>,<col>,...] \
#         -P golden_compare.cmake
#
# Without ARGS and MASK, runs the bench with its default flags (exactly
# how the recorded files were produced) and FATAL_ERRORs on any byte
# difference.
#
# ARGS is a shell-style flag string passed to the bench. MASK lists
# 1-based table columns (wall-clock timings) blanked on both sides;
# with it, only table rows (lines starting "| <digit>") are compared,
# cell by cell with padding trimmed. Every output row must equal one
# recorded row, so ARGS may select a subset of the recorded sweep. An
# output with no table rows fails.

cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED BENCH OR NOT DEFINED GOLDEN)
    message(FATAL_ERROR "golden_compare.cmake needs -DBENCH and -DGOLDEN")
endif()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
    COMMAND ${BENCH} ${args}
    OUTPUT_VARIABLE got
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()

file(READ ${GOLDEN} want)
get_filename_component(name ${GOLDEN} NAME_WE)
set(dump ${CMAKE_CURRENT_BINARY_DIR}/${name}.got.txt)

if(NOT DEFINED MASK)
    if(NOT got STREQUAL want)
        file(WRITE ${dump} "${got}")
        message(FATAL_ERROR
            "${BENCH} output differs from recorded ${GOLDEN}\n"
            "actual output written to ${dump}\n"
            "diff ${GOLDEN} ${dump}")
    endif()
    return()
endif()

# Table rows of `text`, each as its trimmed cells joined by "|", with
# the MASK columns emptied.
function(masked_rows text out)
    string(REPLACE "," ";" masked "${MASK}")
    string(REGEX MATCHALL "\n\\|[ ]+[0-9][^\n]*" lines "\n${text}")
    set(rows "")
    foreach(line IN LISTS lines)
        string(STRIP "${line}" line)
        string(REPLACE "|" ";" cells "${line}")
        set(row "")
        set(col 0)
        foreach(cell IN LISTS cells)
            string(STRIP "${cell}" cell)
            if(col IN_LIST masked)
                set(cell "")
            endif()
            string(APPEND row "${cell}|")
            math(EXPR col "${col} + 1")
        endforeach()
        list(APPEND rows "${row}")
    endforeach()
    set(${out} "${rows}" PARENT_SCOPE)
endfunction()

masked_rows("${got}" got_rows)
masked_rows("${want}" want_rows)
if(NOT got_rows)
    file(WRITE ${dump} "${got}")
    message(FATAL_ERROR "${BENCH} printed no table rows; see ${dump}")
endif()
foreach(row IN LISTS got_rows)
    if(NOT row IN_LIST want_rows)
        file(WRITE ${dump} "${got}")
        message(FATAL_ERROR
            "${BENCH} row not in recorded ${GOLDEN} "
            "(columns ${MASK} masked):\n${row}\n"
            "actual output written to ${dump}")
    endif()
endforeach()
