from padyn.cli import main

raise SystemExit(main())
