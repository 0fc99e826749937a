# End-to-end chaos smoke: the same vca-sim sweep, run clean and run
# under heavy deterministic fault injection (half of first worker
# attempts crash, every cache read corrupts, half of cache writes
# fail), must print byte-identical results. A second chaos pass over
# the now-populated (and constantly corrupted) cache must too. Only
# the "host: ..." line — wall-clock, by construction different every
# run — is stripped before comparison.
#
# Invoked by ctest (see CMakeLists.txt) with:
#   VCA_SIM   path to the vca-sim binary
#   WORK      scratch directory for the two sweep sides

set(sweep_args
    --bench=crafty --arch=vca --sweep-regs=64,96,128,160,192,256
    --warmup=2000 --insts=20000)

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}/clean" "${WORK}/chaos")

# Runs one sweep side and returns its host-line-stripped stdout.
function(run_sweep side out_var)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env
            VCA_CACHE_DIR=cache VCA_SWEEP_STATS= ${ARGN}
            "${VCA_SIM}" ${sweep_args}
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

run_sweep(clean clean_out
    VCA_FAULT_INJECT= VCA_ISOLATE=0)

set(chaos_env
    "VCA_FAULT_INJECT=seed=101,crash=0.5,corrupt=1,writefail=0.5,attempts=1"
    VCA_ISOLATE=1 VCA_RETRIES=3 VCA_POINT_TIMEOUT=120)

run_sweep(chaos chaos_cold_out ${chaos_env})
if(NOT chaos_cold_out STREQUAL clean_out)
    message(FATAL_ERROR "chaos sweep diverged from the clean sweep:\n"
            "--- clean ---\n${clean_out}\n"
            "--- chaos ---\n${chaos_cold_out}")
endif()

# Warm pass: every read of the now-populated cache is corrupted, so
# every point quarantines and re-simulates — still byte-identical
# (including the hit/miss line: corrupted entries count as misses).
run_sweep(chaos chaos_warm_out ${chaos_env})
if(NOT chaos_warm_out STREQUAL clean_out)
    message(FATAL_ERROR
            "warm chaos sweep diverged from the clean sweep:\n"
            "--- clean ---\n${clean_out}\n"
            "--- chaos ---\n${chaos_warm_out}")
endif()

file(REMOVE_RECURSE "${WORK}")
