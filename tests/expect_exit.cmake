# Runs the command after `--` and fails unless it exits with status EXIT
# and, when REGEX is given, its stdout+stderr match REGEX.
#   cmake -DEXIT=<n> [-DREGEX=<re>] -P expect_exit.cmake -- <prog> <args>...
set(command)
set(collect FALSE)
foreach(i RANGE ${CMAKE_ARGC})
  if(collect)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(collect TRUE)
  endif()
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE status
                OUTPUT_VARIABLE output ERROR_VARIABLE output)
if(NOT status STREQUAL "${EXIT}")
  message(FATAL_ERROR "exit status ${status}, expected ${EXIT}:\n${output}")
endif()
if(DEFINED REGEX AND NOT output MATCHES "${REGEX}")
  message(FATAL_ERROR "output does not match '${REGEX}':\n${output}")
endif()
