# --astq=0 keeps the preset ASTQ (4 entries) on every vca-sim path, as
# every ParamOverrides zero does. The single detailed run must then
# simulate exactly the machine --astq=4 does: on the register-starved
# 4-thread VCA@192 mix, a zero-entry ASTQ would stall until the cycle
# budget instead.
#
# Invoked by ctest (see CMakeLists.txt) with:
#   VCA_SIM   path to the vca-sim binary

# Runs one side and returns its "cycles=..." line.
function(run_side astq out_var)
    execute_process(
        COMMAND "${VCA_SIM}" --bench=mcf,gcc_expr,parser,gap --arch=vca
            --regs=192 --insts=5000 --warmup=1000 --stats=false
            --astq=${astq}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "--astq=${astq} run failed (rc=${rc}):\n${out}\n${err}")
    endif()
    if(NOT out MATCHES "cycles=[0-9]+")
        message(FATAL_ERROR "--astq=${astq}: no cycles= line:\n${out}")
    endif()
    set(${out_var} "${CMAKE_MATCH_0}" PARENT_SCOPE)
endfunction()

run_side(0 zero)
run_side(4 four)
if(NOT zero STREQUAL four)
    message(FATAL_ERROR "--astq=0 gave ${zero}, --astq=4 gave ${four}")
endif()
message(STATUS "--astq=0 and --astq=4 both: ${zero}")
