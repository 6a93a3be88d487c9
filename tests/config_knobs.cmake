# Every settable field of SystemConfig must be set somewhere. A Table 1
# value that no bench, test or example varies belongs in the header as
# a static constexpr member, not as a knob.
#
#   cmake -DROOT=<source tree> -P config_knobs.cmake
#
# Lists the non-static data members of the structs in
# src/sim/SystemConfig.hh, leaving out members whose type is one of
# those structs (the sub-config blocks), and fails when one of them
# has no `.<name> =` assignment in a source file under src/, bench/,
# tests/, examples/ or perfbench/. The match is by name only, so a
# field counts as set when a same-named field of any struct is set.

cmake_minimum_required(VERSION 3.16)

set(header ${ROOT}/src/sim/SystemConfig.hh)
# Split into lines by hand: a CMake list cannot hold `;`, and square
# brackets in an element stop it splitting, so spell those out first.
file(READ ${header} content)
string(REPLACE ";" "<semi>" content "${content}")
string(REGEX REPLACE "[][]" "|" content "${content}")
string(REPLACE "\n" ";" lines "${content}")

# Pass 1: drop comments, collect the struct names.
set(code "")
set(structs "")
set(in_comment FALSE)
foreach(line IN LISTS lines)
    if(in_comment)
        string(FIND "${line}" "*/" end)
        if(end EQUAL -1)
            continue()
        endif()
        math(EXPR end "${end} + 2")
        string(SUBSTRING "${line}" ${end} -1 line)
        set(in_comment FALSE)
    endif()
    string(FIND "${line}" "/*" start)
    if(NOT start EQUAL -1)
        string(FIND "${line}" "*/" end)
        string(SUBSTRING "${line}" 0 ${start} head)
        if(end EQUAL -1)
            set(in_comment TRUE)
            set(line "${head}")
        else()
            math(EXPR end "${end} + 2")
            string(SUBSTRING "${line}" ${end} -1 tail)
            set(line "${head}${tail}")
        endif()
    endif()
    string(REGEX REPLACE "//.*" "" line "${line}")
    if(line MATCHES "^struct ([A-Za-z_][A-Za-z0-9_]*)$")
        list(APPEND structs ${CMAKE_MATCH_1})
    endif()
    list(APPEND code "${line}")
endforeach()

# Pass 2: the data members, one `    <type> <name>[ = ...|{}];` each.
# `static constexpr` lines, functions and enumerators do not match.
set(fields "")
set(struct "")
foreach(line IN LISTS code)
    if(line MATCHES "^struct ([A-Za-z_][A-Za-z0-9_]*)$")
        set(struct ${CMAKE_MATCH_1})
    elseif(line MATCHES "^}<semi>")
        set(struct "")
    elseif(struct AND line MATCHES "^    ([A-Za-z_][A-Za-z0-9_:]*) +\
([A-Za-z_][A-Za-z0-9_]*) *(=.*|{})?<semi>$")
        if(NOT CMAKE_MATCH_1 IN_LIST structs)
            list(APPEND fields "${struct}::${CMAKE_MATCH_2}")
        endif()
    endif()
endforeach()
list(LENGTH fields nfields)
if(nfields EQUAL 0)
    message(FATAL_ERROR "found no fields in ${header}")
endif()

set(sources "")
foreach(dir src bench tests examples perfbench)
    file(GLOB_RECURSE found ${ROOT}/${dir}/*.cc ${ROOT}/${dir}/*.hh
         ${ROOT}/${dir}/*.cpp ${ROOT}/${dir}/*.h)
    list(APPEND sources ${found})
endforeach()
set(text "")
foreach(f IN LISTS sources)
    file(READ ${f} body)
    string(APPEND text "${body}")
endforeach()

set(unset "")
foreach(field IN LISTS fields)
    string(REGEX REPLACE ".*::" "" name "${field}")
    if(NOT text MATCHES "\\.${name} *=[^=]")
        list(APPEND unset ${field})
    endif()
endforeach()

list(LENGTH unset nunset)
if(nunset GREATER 0)
    list(JOIN unset "\n  " listing)
    message(FATAL_ERROR
            "${nunset} of ${nfields} settable SystemConfig fields are "
            "assigned nowhere; make each a static constexpr member or "
            "vary it:\n  ${listing}")
endif()
message(STATUS "${nfields} settable SystemConfig fields, each assigned")
