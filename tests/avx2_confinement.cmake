# Checks that the simulator library's AVX2 code stays inside the lane executor's AVX2
# twin (Cpu::ExecuteLanesAvx2, docs/SIMULATOR.md "Lockstep lanes"), and that the twin
# holds some. A VEX- or EVEX-encoded instruction, or a ymm/zmm register, anywhere else
# could run on a host without AVX2 and kill it (SIGILL); a twin with none means the
# compiler dropped its target attribute and the twin is a second generic executor.
#
#   cmake -DOBJDUMP=<objdump> -DLIBRARY=<libneuroc_sim.a> -P avx2_confinement.cmake
#
# Prints "SKIP:" (which the ctest entry treats as a skip) when the library is not
# x86-64 code. A build whose flags enable AVX for every file (-march=native, -mavx2)
# fails by design: its binaries die on hosts without AVX.

if(NOT OBJDUMP)
  message(FATAL_ERROR "no objdump: configure found none (CMAKE_OBJDUMP)")
endif()
execute_process(COMMAND "${OBJDUMP}" -d "${LIBRARY}" OUTPUT_VARIABLE dis
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OBJDUMP} -d ${LIBRARY} failed: ${rc}")
endif()
if(NOT dis MATCHES "file format [^\n]*x86-64")
  message("SKIP: ${LIBRARY} is not x86-64 code")
  return()
endif()

# Reduce the listing to its symbol headers and one VEX line per VEX instruction. An
# instruction's first line is "<addr>:<tab or space><bytes><tab><mnemonic>..." (GNU
# objdump and llvm-objdump); in 64-bit code a first opcode byte c4/c5 (VEX) or 62
# (EVEX), after any segment or address-size prefix, is always one of those encodings.
# GNU objdump's continuation lines of a long instruction carry bytes only (no second
# tab) and are dropped with the rest.
string(REPLACE ";" "," dis "${dis}")
string(REGEX REPLACE
       "\n *[0-9a-f]+:[ \t]((26|2e|36|3e|64|65|67) )*(c4|c5|62) [0-9a-f ]*\t[^\n]*" "\nVEX"
       dis "${dis}")
string(REGEX REPLACE "\n *[0-9a-f]+:[ \t][^\n]*%[yz]mm[^\n]*" "\nVEX" dis "${dis}")
string(REGEX REPLACE "\n *[0-9a-f]+:[^\n]*" "" dis "${dis}")
string(REPLACE "\n" ";" lines "${dis}")

set(symbol "")
set(twins "")
set(outside "")
foreach(line IN LISTS lines)
  if(line MATCHES "^[0-9a-f]+ <(.*)>:$")
    set(symbol "${CMAKE_MATCH_1}")
    # The twin's instantiations; its cold parts and lambdas carry the name too.
    if(symbol MATCHES "^_?_ZN6neuroc3Cpu16ExecuteLanesAvx2I[^.]*$")
      list(APPEND twins "${symbol}")
      set(vex_${symbol} 0)
    endif()
  elseif(line STREQUAL "VEX")
    if(symbol MATCHES "ExecuteLanesAvx2")
      if(DEFINED vex_${symbol})
        math(EXPR vex_${symbol} "${vex_${symbol}} + 1")
      endif()
    else()
      list(APPEND outside "${symbol}")
    endif()
  endif()
endforeach()

set(failed FALSE)
if(outside)
  list(LENGTH outside count)
  list(REMOVE_DUPLICATES outside)
  list(JOIN outside "\n  " names)
  message("FAIL: ${count} AVX instructions outside Cpu::ExecuteLanesAvx2, in:\n  ${names}")
  set(failed TRUE)
endif()
if(NOT twins)
  message("FAIL: no Cpu::ExecuteLanesAvx2 instantiation in ${LIBRARY}")
  set(failed TRUE)
endif()
foreach(twin IN LISTS twins)
  if(vex_${twin} EQUAL 0)
    message("FAIL: ${twin} holds no AVX instruction: its target attribute was dropped")
    set(failed TRUE)
  else()
    message("${twin}: ${vex_${twin}} AVX instructions")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "AVX2 code is not confined to the lane executor's AVX2 twin")
endif()
