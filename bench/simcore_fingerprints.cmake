# Pins the simulated behaviour of the repository benchmark: runs every
# bench_simcore workload at 2% scale, seed 7, one repetition, and
# compares each workload's stats fingerprint with its pinned value. A
# change that must not alter behaviour keeps every value; a deliberate
# behaviour change re-pins the moved values here and lists old and new
# ones in CHANGES.md.
#
# It also pins each workload's event count (sim.events), the
# deterministic measure of host cost: a change that fires more or fewer
# events re-pins it, listing old and new values in CHANGES.md, even
# when every fingerprint stays.
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

set(pinned_events
    incast_burst 93938
    uniform_8x8 78076
    a2a_deliberate 32111
    dsm_stencil 95651
    dsm_migratory 60443)

execute_process(
    COMMAND ${BENCH} --scale 0.02 --reps 1 --seed 7 --json ${OUT}
    RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "bench_simcore failed (${status})")
endif()

file(READ ${OUT} report)
string(JSON count LENGTH "${report}" workloads)
set(observed "")
set(observed_events "")
math(EXPR last "${count} - 1")
foreach(i RANGE ${last})
    string(JSON name GET "${report}" workloads ${i} name)
    string(JSON fingerprint GET "${report}" workloads ${i} fingerprint)
    string(JSON events GET "${report}" workloads ${i} metrics sim.events
           value)
    list(APPEND observed ${name} ${fingerprint})
    list(APPEND observed_events ${name} ${events})
endforeach()

if(NOT observed STREQUAL pinned)
    string(REPLACE ";" " " want "${pinned}")
    string(REPLACE ";" " " got "${observed}")
    message(FATAL_ERROR "bench_simcore fingerprints moved\n"
                        "  pinned:   ${want}\n  observed: ${got}")
endif()
if(NOT observed_events STREQUAL pinned_events)
    string(REPLACE ";" " " want "${pinned_events}")
    string(REPLACE ";" " " got "${observed_events}")
    message(FATAL_ERROR "bench_simcore event counts moved\n"
                        "  pinned:   ${want}\n  observed: ${got}")
endif()
message(STATUS "all ${count} bench_simcore fingerprints and event "
               "counts match")
