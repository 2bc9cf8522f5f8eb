# Pins every experiment's simulated numbers: runs shrimp_claims in DIR
# and compares the SHA-256 of the `rows` array of the CLAIMS.json it
# writes, byte for byte as written, with the pinned value. A change
# that must not alter behaviour keeps the value; a deliberate change
# to a row (a new metric, a moved result) re-pins it here and lists
# old and new values in CHANGES.md. The claims themselves are the
# `claims` ctest's to check.
#
# The claims_rows ctest (label claims) runs it as
#   cmake -DCLAIMS=path/to/shrimp_claims -DDIR=work/dir
#         -P bench/claims_rows.cmake

set(pinned 83bdeca6d24ed7bd9277f94644fadcdfb0044ade13f1edf647834bb42271365b)

file(MAKE_DIRECTORY ${DIR})
file(REMOVE ${DIR}/CLAIMS.json)
execute_process(COMMAND ${CLAIMS} WORKING_DIRECTORY ${DIR}
                RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT EXISTS ${DIR}/CLAIMS.json)
    message(FATAL_ERROR "shrimp_claims wrote no CLAIMS.json (${status})")
endif()

file(READ ${DIR}/CLAIMS.json report)
string(FIND "${report}" "\"rows\": [" begin)
string(FIND "${report}" "\"claims\": [" end)
if(begin EQUAL -1 OR end EQUAL -1)
    message(FATAL_ERROR "CLAIMS.json has no rows or claims array")
endif()
math(EXPR length "${end} - ${begin}")
string(SUBSTRING "${report}" ${begin} ${length} rows)
string(SHA256 observed "${rows}")

if(NOT observed STREQUAL pinned)
    message(FATAL_ERROR "CLAIMS.json rows moved\n"
                        "  pinned:   ${pinned}\n  observed: ${observed}")
endif()
message(STATUS "CLAIMS.json rows match the pin")
