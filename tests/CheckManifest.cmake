# Compares the tests ctest discovers in BUILD_DIR, with their labels, with
# MANIFEST: one test per line, sorted bytewise, each name cut before its
# "  # GetParam() = ..." comment (the raw parameter bytes some
# parameterized names print) and followed by "  [label,...]" when the test
# has labels. Lines starting with '#' are comments. Fails, naming every
# added and missing line, when the two differ. Pinning the labels is what
# keeps the label-filtered presets honest: `ctest -L` with a label that
# matches nothing runs zero tests and still passes.
#
#   cmake -DCTEST=ctest -DBUILD_DIR=build -DMANIFEST=tests/MANIFEST.txt \
#         -P tests/CheckManifest.cmake
#
# Regenerate the list after a deliberate change (keep the comment header):
#
#   ctest --test-dir build --show-only=json-v1 | python3 -c '
#   import json, sys
#   for t in json.load(sys.stdin)["tests"]:
#       p = {q["name"]: q["value"] for q in t.get("properties", [])}
#       n = t["name"].split("  # GetParam() = ")[0]
#       l = p.get("LABELS")
#       print(n + ("  [" + ",".join(l) + "]" if l else ""))' |
#     LC_ALL=C sort

execute_process(COMMAND "${CTEST}" --show-only=json-v1
  WORKING_DIRECTORY "${BUILD_DIR}"
  OUTPUT_VARIABLE Json
  RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "ctest --show-only=json-v1 failed in ${BUILD_DIR} (${Rc})")
endif()

set(Discovered)
string(JSON Count LENGTH "${Json}" tests)
math(EXPR Last "${Count} - 1")
foreach(I RANGE ${Last})
  string(JSON Test GET "${Json}" tests ${I})
  string(JSON Name GET "${Test}" name)
  string(FIND "${Name}" "  # GetParam() = " Cut)
  if(Cut GREATER -1)
    string(SUBSTRING "${Name}" 0 ${Cut} Name)
  endif()
  set(Labels)
  string(JSON NumProps ERROR_VARIABLE NoProps LENGTH "${Test}" properties)
  if(NOT NoProps AND NumProps GREATER 0)
    math(EXPR LastProp "${NumProps} - 1")
    foreach(P RANGE ${LastProp})
      string(JSON PropName GET "${Test}" properties ${P} name)
      if(PropName STREQUAL "LABELS")
        string(JSON NumLabels LENGTH "${Test}" properties ${P} value)
        math(EXPR LastLabel "${NumLabels} - 1")
        foreach(L RANGE ${LastLabel})
          string(JSON Label GET "${Test}" properties ${P} value ${L})
          list(APPEND Labels "${Label}")
        endforeach()
      endif()
    endforeach()
  endif()
  if(Labels)
    list(JOIN Labels "," Labels)
    string(APPEND Name "  [${Labels}]")
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
    "reordered or duplicated line shows neither)")
endif()
list(LENGTH Discovered Count)
message(STATUS "${Count} tests and their labels match ${MANIFEST}")
