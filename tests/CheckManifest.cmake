# Compares the tests ctest discovers in BUILD_DIR with MANIFEST: one name
# per line, sorted bytewise, each cut before its "  # GetParam() = ..."
# comment (the raw parameter bytes some parameterized names print). Lines
# starting with '#' are comments. Fails, naming every added and missing
# test, when the two differ.
#
#   cmake -DCTEST=ctest -DBUILD_DIR=build -DMANIFEST=tests/MANIFEST.txt \
#         -P tests/CheckManifest.cmake
#
# Regenerate the list after a deliberate change:
#
#   ctest --test-dir build -N | sed -n 's/^ *Test *#[0-9]*: //p' |
#     sed 's/  # GetParam() = .*//' | LC_ALL=C sort

execute_process(COMMAND "${CTEST}" -N
  WORKING_DIRECTORY "${BUILD_DIR}"
  OUTPUT_VARIABLE Listing
  RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "ctest -N failed in ${BUILD_DIR} (${Rc})")
endif()

string(REPLACE "\n" ";" Lines "${Listing}")
set(Discovered)
foreach(Line IN LISTS Lines)
  if(NOT Line MATCHES "^ *Test +#[0-9]+: (.*)$")
    continue()
  endif()
  set(Name "${CMAKE_MATCH_1}")
  string(FIND "${Name}" "  # GetParam() = " Cut)
  if(Cut GREATER -1)
    string(SUBSTRING "${Name}" 0 ${Cut} Name)
  endif()
  list(APPEND Discovered "${Name}")
endforeach()
list(SORT Discovered)

file(STRINGS "${MANIFEST}" Listed REGEX "^[^#]")

set(Added ${Discovered})
list(REMOVE_ITEM Added ${Listed})
set(Missing ${Listed})
list(REMOVE_ITEM Missing ${Discovered})
if(Added OR Missing OR NOT Discovered STREQUAL Listed)
  list(JOIN Added "\n  + " AddedText)
  list(JOIN Missing "\n  - " MissingText)
  message(FATAL_ERROR
    "ctest discovery differs from ${MANIFEST}\n"
    "  + ${AddedText}\n  - ${MissingText}\n"
    "(+ discovered but not listed, - listed but not discovered; a "
    "reordered or duplicated name shows neither)")
endif()
list(LENGTH Discovered Count)
message(STATUS "${Count} tests match ${MANIFEST}")
