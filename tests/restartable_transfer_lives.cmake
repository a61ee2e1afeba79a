# Runs examples/restartable_transfer three times against one journal and
# checks its scripted sequence: life 1 crashes, life 2 resumes and
# crashes, life 3 completes byte-exact and removes the journals.  Every
# life must exit 0.
#
#   cmake -DBINARY=<restartable_transfer> -DJOURNAL=<path> -P <this file>
file(REMOVE "${JOURNAL}" "${JOURNAL}.rx")
set(expect_1 "life 1 \\(fresh session\\).*sender CRASHED")
set(expect_2 "life 2 \\(resumed\\).*sender CRASHED")
set(expect_3 "life 3 \\(resumed\\).*transfer COMPLETE in 3 .*byte-exact = yes")
foreach(life 1 2 3)
  execute_process(COMMAND "${BINARY}" "--journal=${JOURNAL}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  message("${out}")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "life ${life} exited with ${rc}")
  endif()
  if(NOT out MATCHES "${expect_${life}}")
    message(FATAL_ERROR "life ${life} did not match: ${expect_${life}}")
  endif()
endforeach()
if(EXISTS "${JOURNAL}" OR EXISTS "${JOURNAL}.rx")
  message(FATAL_ERROR "the completed transfer left its journals behind")
endif()
