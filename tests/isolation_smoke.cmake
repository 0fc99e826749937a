# End-to-end isolation smoke: the same vca-sim sweep, run in-process
# (--isolate=false) and with every simulated point in a forked worker
# (--isolate=true), must print byte-identical results, both on a cold
# cache and on the warm cache the first pass left behind. Only the
# "host: ..." line — wall-clock, by construction different every run —
# is stripped before comparison.
#
# Invoked by ctest (see CMakeLists.txt) with:
#   VCA_SIM   path to the vca-sim binary
#   WORK      scratch directory for the two sweep sides

set(sweep_args
    --bench=crafty --arch=vca --sweep-regs=64,96,128,160,192,256
    --warmup=2000 --insts=20000)

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}/inprocess" "${WORK}/isolated")

# Runs one sweep side and returns its host-line-stripped stdout.
function(run_sweep side isolate out_var)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env
            VCA_CACHE_DIR=cache VCA_SWEEP_STATS= VCA_ISOLATE=
            VCA_POINT_TIMEOUT=
            "${VCA_SIM}" ${sweep_args} --isolate=${isolate}
        WORKING_DIRECTORY "${WORK}/${side}"
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "${side} sweep failed (rc=${rc}):\n${out}\n${err}")
    endif()
    string(REGEX REPLACE "host: [^\n]*\n" "" out "${out}")
    set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

foreach(pass cold warm)
    run_sweep(inprocess false inprocess_out)
    run_sweep(isolated true isolated_out)
    if(NOT isolated_out STREQUAL inprocess_out)
        message(FATAL_ERROR
                "${pass} isolated sweep diverged from in-process:\n"
                "--- in-process ---\n${inprocess_out}\n"
                "--- isolated ---\n${isolated_out}")
    endif()
endforeach()

# The warm pass must really have been served from the cache.
if(NOT isolated_out MATCHES "cache: 6 hits, 0 misses")
    message(FATAL_ERROR "warm pass was not all cache hits:\n"
            "${isolated_out}")
endif()

file(REMOVE_RECURSE "${WORK}")
