# Runs examples/multicast_server with one bad flag at a time and checks
# that each run exits 2 with a message naming the flag, instead of
# aborting on an uncaught exception or running with the flag ignored.
#
#   cmake -DBINARY=<multicast_server> -P <this file>
set(cases
  "--receivers=-1|--receivers"
  "--grace-round=1|--grace-round"
  "--reliable=maybe|--reliable"
  "--h=300|h = 300"
  "-k=300|-k=300"
  "sessions=3|sessions=3"
  "--journal-dir=${BINARY}/j|--journal-dir")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 flag)
  list(GET parts 1 expect)
  execute_process(COMMAND "${BINARY}" "${flag}" --sessions=1 --tgs=1
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  message("${flag}: exit ${rc}: ${out}")
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${flag}: expected exit 2, got ${rc}")
  endif()
  string(FIND "${out}" "${expect}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${flag}: message does not name '${expect}'")
  endif()
endforeach()
