# Pins the simulated behaviour of the repository benchmark: runs every
# bench_simcore workload at 2% scale, seed 7, one repetition, and
# compares each workload's stats fingerprint with its pinned value. A
# change that must not alter behaviour keeps every value; a deliberate
# behaviour change re-pins the moved values here and lists old and new
# ones in CHANGES.md.
#
# The simcore_fingerprints ctest (label bench) runs it as
#   cmake -DBENCH=path/to/bench_simcore -DOUT=report.json
#         -P bench/simcore_fingerprints.cmake

set(pinned
    incast_burst 0xaa11e607a4837b69
    uniform_8x8 0x8c3d2964cc6fc05b
    a2a_deliberate 0x29ef0e1ef88cab90
    dsm_stencil 0x04dabb3bb6312bdc
    dsm_migratory 0xa963c39df16aed68)

execute_process(
    COMMAND ${BENCH} --scale 0.02 --reps 1 --seed 7 --json ${OUT}
    RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "bench_simcore failed (${status})")
endif()

file(READ ${OUT} report)
string(JSON count LENGTH "${report}" workloads)
set(observed "")
math(EXPR last "${count} - 1")
foreach(i RANGE ${last})
    string(JSON name GET "${report}" workloads ${i} name)
    string(JSON fingerprint GET "${report}" workloads ${i} fingerprint)
    list(APPEND observed ${name} ${fingerprint})
endforeach()

if(NOT observed STREQUAL pinned)
    string(REPLACE ";" " " want "${pinned}")
    string(REPLACE ";" " " got "${observed}")
    message(FATAL_ERROR "bench_simcore fingerprints moved\n"
                        "  pinned:   ${want}\n  observed: ${got}")
endif()
message(STATUS "all ${count} bench_simcore fingerprints match")
