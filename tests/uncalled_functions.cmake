# Every function declared in a src/ header must be referenced somewhere
# besides its declaration and its out-of-line definition. A function
# nothing calls is deleted, not kept "in case".
#
#   cmake -DROOT=<source tree> -P uncalled_functions.cmake
#
# Reads the sources under src/, bench/, tests/, examples/ and
# perfbench/ with comments and string literals removed. A declaration
# (or definition) is a name followed by `(` whose previous token is a
# type: an identifier that is not a keyword such as `return`, a
# template's closing `>`, or a pointer or reference declarator. The
# names declared that way in src/**/*.hh are the candidates; one fails
# when the tree holds no more occurrences of it than it has
# declarations and definitions. The match is by name only, so a
# function counts as called when a same-named one is. `std::`-qualified
# names are not the project's and are skipped.

cmake_minimum_required(VERSION 3.16)

set(decl_regex "([A-Za-z_][A-Za-z0-9_]*[ \n]+|[A-Za-z0-9_*&>]>[ \n]*|\
[A-Za-z0-9_>] *[*&][ \n]*)(([A-Za-z_][A-Za-z0-9_]*::)*\
[A-Za-z_][A-Za-z0-9_]*) *[(]")
# Previous tokens that make a call, not a declaration.
set(statement_words return else new delete throw case goto explicit
    co_return co_await co_yield)
# Names that take `(` but are no function of the project's, and the
# allocator hooks that std::allocate_shared calls on PoolAlloc.
set(non_functions if for while switch sizeof alignof decltype
    static_assert operator catch noexcept alignas defined typeid
    requires allocate deallocate)

# Comment- and string-free text of @p file in @p out.
function(read_code file out)
    file(READ ${file} body)
    # CMake regexes have no lazy `*?`: mark comment ends with a byte
    # that never occurs in source, then match up to the first one.
    string(ASCII 1 open)
    string(ASCII 2 close)
    string(REPLACE "/*" "${open}" body "${body}")
    string(REPLACE "*/" "${close}" body "${body}")
    string(REGEX REPLACE "${open}[^${close}]*${close}" " " body
           "${body}")
    string(REGEX REPLACE "\"([^\"\\\\\n]|\\\\.)*\"" "\"\"" body
           "${body}")
    string(REGEX REPLACE "//[^\n]*" "" body "${body}")
    set(${out} "${body}" PARENT_SCOPE)
endfunction()

# Names declared (or defined) in @p code, as list @p out.
function(declared_names code out)
    string(REGEX MATCHALL "${decl_regex}" hits "${code}")
    set(names "")
    foreach(hit IN LISTS hits)
        string(REGEX MATCH "${decl_regex}" unused "${hit}")
        string(STRIP "${CMAKE_MATCH_1}" prev)
        set(name "${CMAKE_MATCH_2}")
        if(prev IN_LIST statement_words OR name MATCHES "^std::")
            continue()
        endif()
        string(REGEX REPLACE ".*::" "" name "${name}")
        if(NOT name IN_LIST non_functions)
            list(APPEND names ${name})
        endif()
    endforeach()
    set(${out} ${names} PARENT_SCOPE)
endfunction()

set(candidates "")
set(declarations "")
set(tokens "")
foreach(dir src bench tests examples perfbench)
    file(GLOB_RECURSE found ${ROOT}/${dir}/*.cc ${ROOT}/${dir}/*.hh
         ${ROOT}/${dir}/*.cpp ${ROOT}/${dir}/*.h)
    foreach(f IN LISTS found)
        read_code(${f} code)
        declared_names("${code}" names)
        list(APPEND declarations ${names})
        if(dir STREQUAL "src" AND f MATCHES "[.]hh$")
            list(APPEND candidates ${names})
        endif()
        string(REGEX MATCHALL "[A-Za-z_][A-Za-z0-9_]*" words "${code}")
        list(APPEND tokens ${words})
    endforeach()
endforeach()
list(REMOVE_DUPLICATES candidates)
list(LENGTH candidates ncandidates)
if(ncandidates EQUAL 0)
    message(FATAL_ERROR "found no declarations under ${ROOT}/src")
endif()

# Occurrences of a name in a sorted list: equal elements are adjacent
# and equally long, so the span between the first and the last one
# gives their number.
list(SORT tokens)
list(SORT declarations)
set(tokens ";${tokens};")
set(declarations ";${declarations};")
function(count_in sorted name out)
    string(FIND "${${sorted}}" ";${name};" first)
    if(first EQUAL -1)
        set(${out} 0 PARENT_SCOPE)
        return()
    endif()
    string(FIND "${${sorted}}" ";${name};" last REVERSE)
    string(LENGTH "${name};" step)
    math(EXPR n "(${last} - ${first}) / ${step} + 1")
    set(${out} ${n} PARENT_SCOPE)
endfunction()

set(uncalled "")
foreach(name IN LISTS candidates)
    count_in(tokens ${name} uses)
    count_in(declarations ${name} decls)
    if(uses LESS_EQUAL decls)
        list(APPEND uncalled ${name})
    endif()
endforeach()

list(LENGTH uncalled nuncalled)
if(nuncalled GREATER 0)
    list(SORT uncalled)
    list(JOIN uncalled "\n  " listing)
    message(FATAL_ERROR
            "${nuncalled} of ${ncandidates} functions declared under "
            "src/ are referenced nowhere but at their declaration and "
            "definition; delete them or call them:\n  ${listing}")
endif()
message(STATUS "${ncandidates} functions declared under src/, each "
               "referenced")
